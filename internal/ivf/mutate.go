package ivf

import (
	"fmt"
	"sort"
)

// Mutation support. RAG's whole premise is a mutable, non-parametric
// datastore that evolves without retraining the LLM (paper Sections 1-2),
// so the index supports online removal alongside Add: Remove tombstones a
// list slot so scans skip it, and Compact reclaims the space once enough
// garbage accumulates. The coarse quantizer is intentionally left untouched
// — re-clustering is an offline rebuild, as in the paper's workflow.
//
// Tombstones are kept as per-list sorted position slices rather than a
// global hash set: the scan hot loop advances a cursor through the (almost
// always empty) positions instead of hashing every visited slot, so removal
// support costs the blocked scan path nothing when no tombstones exist.

// isDead reports whether list li's slot pos is tombstoned.
func (ix *Index) isDead(li, pos int) bool {
	if ix.deadCount == 0 || ix.deadPos == nil {
		return false
	}
	d := ix.deadPos[li]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= uint32(pos) })
	return i < len(d) && d[i] == uint32(pos)
}

// markDead tombstones list li's slot pos, keeping positions sorted.
func (ix *Index) markDead(li, pos int) {
	if ix.deadPos == nil {
		ix.deadPos = make([][]uint32, len(ix.lists))
	}
	d := ix.deadPos[li]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= uint32(pos) })
	d = append(d, 0)
	copy(d[i+1:], d[i:])
	d[i] = uint32(pos)
	ix.deadPos[li] = d
	ix.deadCount++
}

// Remove tombstones the first live entry stored under id. It returns false
// if the id is not present (or already removed). The slot is skipped during
// scans until Compact reclaims it; removing and re-adding the same id is
// safe because tombstones are per slot, not per id.
func (ix *Index) Remove(id int64) bool {
	if !ix.trained {
		return false
	}
	for li := range ix.lists {
		for pos, got := range ix.lists[li].ids {
			if got != id {
				continue
			}
			if ix.isDead(li, pos) {
				continue
			}
			ix.markDead(li, pos)
			ix.count--
			return true
		}
	}
	return false
}

// EachID calls visit with the id of every live entry, list by list in slot
// order, skipping tombstoned slots. visit must not mutate the index.
func (ix *Index) EachID(visit func(id int64)) {
	for li := range ix.lists {
		var dead []uint32
		if ix.deadPos != nil {
			dead = ix.deadPos[li]
		}
		for pos, id := range ix.lists[li].ids {
			if len(dead) > 0 && dead[0] == uint32(pos) {
				dead = dead[1:]
				continue
			}
			visit(id)
		}
	}
}

// Tombstones reports how many removed entries still occupy list space.
func (ix *Index) Tombstones() int { return ix.deadCount }

// Compact rewrites every inverted list without tombstoned slots, reclaiming
// their memory. It must not run concurrently with searches.
func (ix *Index) Compact() {
	if ix.deadCount == 0 {
		return
	}
	cs := ix.cfg.Quantizer.CodeSize()
	for li := range ix.lists {
		dead := ix.deadPos[li]
		if len(dead) == 0 {
			continue
		}
		l := &ix.lists[li]
		keepIDs := l.ids[:0]
		keepCodes := l.codes[:0]
		di := 0
		for pos, id := range l.ids {
			if di < len(dead) && dead[di] == uint32(pos) {
				di++
				continue
			}
			keepIDs = append(keepIDs, id)
			keepCodes = append(keepCodes, l.codes[pos*cs:(pos+1)*cs]...)
		}
		l.ids = keepIDs
		l.codes = keepCodes
	}
	ix.deadPos = nil
	ix.deadCount = 0
}

// Update replaces the vector stored under id (remove + re-add under the
// current coarse quantizer). It errors if the id is absent.
func (ix *Index) Update(id int64, v []float32) error {
	if !ix.Remove(id) {
		return fmt.Errorf("ivf: Update of unknown id %d", id)
	}
	return ix.Add(id, v)
}
