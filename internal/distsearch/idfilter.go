package distsearch

import (
	"math/bits"
	"sync/atomic"
)

// idFilter is a Bloom filter over document ids: the coordinator's view of
// which ids a node holds, so that Remove asks the holder first instead of
// walking the nodes one round trip at a time. A node builds one over its live
// ids when it answers OpInfo; the coordinator sets the bits of every id its
// own Add routes to the node and replaces the filter with the node's fresh
// one on every redial. A filter never misses an id the node held at the
// handshake or took from this coordinator since, but it does miss one another
// coordinator added, so Remove still walks the nodes the filters rule out
// before it reports an id absent.
//
// Sizing: filterBitsPerID bits per id and filterProbes probes, the optimum
// for that size, give about 0.24% false positives at 2 bytes per id. The
// probes come from one 64-bit mix of the id by double hashing, and each is
// mapped onto the filter's bits by fast range, so the length need not be a
// power of two.
type idFilter struct{ words []uint64 }

const (
	filterBitsPerID = 16
	filterProbes    = 4
)

// newIDFilter returns an empty filter sized for n ids. It has at least one
// word, so that a node that starts empty still records the ids added to it.
func newIDFilter(n int) *idFilter {
	return &idFilter{words: make([]uint64, max(1, (n*filterBitsPerID+63)/64))}
}

// idHash is the splitmix64 finalizer of id: every input bit reaches every
// output bit, and id 0 does not hash to 0.
func idHash(id int64) uint64 {
	h := uint64(id) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// probe returns the word and bit mask of the i-th probe of an id hashed to h:
// the probes step through h by an odd stride, and fast range (the high word of
// a 64×64-bit product) maps each onto one of the filter's bits.
func (f *idFilter) probe(h uint64, i int) (int, uint64) {
	stride := bits.RotateLeft64(h, 32) | 1
	b, _ := bits.Mul64(h+uint64(i)*stride, uint64(len(f.words))*64)
	return int(b >> 6), 1 << (b & 63)
}

// add records id, safely beside concurrent adds and mayHold calls. A nil or
// empty filter (a node that shipped none) records nothing.
func (f *idFilter) add(id int64) {
	if f == nil || len(f.words) == 0 {
		return
	}
	h := idHash(id)
	for i := 0; i < filterProbes; i++ {
		w, m := f.probe(h, i)
		for p := &f.words[w]; ; {
			old := atomic.LoadUint64(p)
			if old&m != 0 || atomic.CompareAndSwapUint64(p, old, old|m) {
				break
			}
		}
	}
}

// mayHold reports whether id may be in the filter; false means it was never
// recorded. A nil or empty filter holds nothing.
func (f *idFilter) mayHold(id int64) bool {
	if f == nil || len(f.words) == 0 {
		return false
	}
	h := idHash(id)
	for i := 0; i < filterProbes; i++ {
		w, m := f.probe(h, i)
		if atomic.LoadUint64(&f.words[w])&m == 0 {
			return false
		}
	}
	return true
}
