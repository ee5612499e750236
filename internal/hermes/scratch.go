package hermes

import (
	"time"

	"repro/internal/evlog"
	"repro/internal/ivf"
	"repro/internal/vec"
)

// rankedShard pairs a shard with its routing score (sampled-document or
// centroid distance) for the deep phase.
type rankedShard struct {
	d     float32
	shard int32
}

// sortRanked orders shards ascending by score, ties by shard index, with an
// insertion sort: the ranking is a function of the scores alone, not of the
// order they were collected in. Shard counts are small (the paper deploys
// 10-40), where insertion sort wins and — unlike sort.Slice — costs no
// closure allocation in the hot path.
//
//hermes:hotpath
func sortRanked(order []rankedShard) {
	for i := 1; i < len(order); i++ {
		x := order[i]
		j := i - 1
		for j >= 0 && (order[j].d > x.d || (order[j].d == x.d && order[j].shard > x.shard)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = x
	}
}

// searchScratch is the per-query reusable state of the store search paths:
// the shard ranking slice, the final top-k selector, a per-shard result
// buffer, and one warmed ivf.Searcher per shard so both phases hit the
// zero-allocation scan path. Recycled through Store.pool; one scratch is
// used by one query at a time.
type searchScratch struct {
	order    []rankedShard
	tk       *vec.TopK
	buf      []vec.Neighbor
	samplers []*ivf.Searcher
}

func (st *Store) getScratch() *searchScratch {
	if sc, ok := st.pool.Get().(*searchScratch); ok && len(sc.samplers) == len(st.Shards) {
		//lint:ignore poolescape typed pool accessor: every getScratch is paired with putScratch by the search paths, which keeps the Get/Put bracket one level up
		return sc
	}
	return &searchScratch{
		order:    make([]rankedShard, 0, len(st.Shards)),
		samplers: make([]*ivf.Searcher, len(st.Shards)),
	}
}

// topK returns the scratch's top-k selector reset for a fresh query.
//
//hermes:hotpath
func (sc *searchScratch) topK(k int) *vec.TopK {
	if sc.tk == nil {
		sc.tk = vec.NewTopK(k)
	} else {
		sc.tk.Reset(k)
	}
	return sc.tk
}

// searchShard runs one shard query through the scratch's warmed Searcher,
// reusing the shared result buffer and timing the scan against the shard's
// per-quantizer histogram (a no-op without SetTelemetry).
//
//hermes:hotpath
func (st *Store) searchShard(sc *searchScratch, s int, q []float32, k, nProbe int) ([]vec.Neighbor, ivf.SearchStats) {
	if sc.samplers[s] == nil {
		sc.samplers[s] = st.Shards[s].Index.NewSearcher()
	}
	h := st.met.scanHist(s)
	slow := st.ev != nil && st.slowScan > 0
	var t0 time.Time
	if h != nil || slow {
		t0 = now()
	}
	res, stats := sc.samplers[s].Search(sc.buf[:0], q, k, nProbe)
	if h != nil || slow {
		d := now().Sub(t0)
		if h != nil {
			h.ObserveDuration(d)
		}
		if slow && d > st.slowScan {
			// Gated on the threshold crossing: the variadic field slice
			// only materializes for scans already past slowScan.
			st.ev.Warn("store.slow_scan",
				evlog.Int("shard", int64(s)), evlog.Dur("dur", d))
		}
	}
	sc.buf = res
	return res, stats
}
