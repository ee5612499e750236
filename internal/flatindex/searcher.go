package flatindex

import (
	"fmt"

	"repro/internal/vec"
)

// scanBlock matches the IVF scan block size: 256 rows per L2SquaredBatch
// call keeps the distance scratch in L1 while amortizing call overhead.
const scanBlock = 256

// Searcher is a reusable handle over one Index holding the per-query
// scratch (block distance buffer and top-k selector), so steady-state exact
// searches allocate nothing beyond the caller-visible result slice. Not safe
// for concurrent use; create one per goroutine or let Index.Search draw from
// the internal pool.
type Searcher struct {
	ix   *Index
	dist []float32
	tk   *vec.TopK
}

// NewSearcher returns a fresh search handle for ix.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix, dist: make([]float32, scanBlock)}
}

func (ix *Index) getSearcher() *Searcher {
	if s, ok := ix.pool.Get().(*Searcher); ok {
		//lint:ignore poolescape typed pool accessor: every getSearcher is paired with putSearcher by the callers, which keeps the Get/Put bracket one level up
		return s
	}
	return ix.NewSearcher()
}

// Search appends the k exact nearest neighbors of q (best first, squared L2)
// to dst. The scan runs in blocks through vec.L2SquaredBatch — bit-identical
// to the scalar row-by-row loop, so ground-truth outputs are unchanged.
//
//hermes:hotpath
func (s *Searcher) Search(dst []vec.Neighbor, q []float32, k int) []vec.Neighbor {
	ix := s.ix
	if len(q) != ix.dim {
		panic(fmt.Sprintf("flatindex: Search dim %d != %d", len(q), ix.dim))
	}
	n := ix.data.Len()
	if k <= 0 || n == 0 {
		return dst
	}
	if k > n { // never size the selector past what the index holds
		k = n
	}
	if s.tk == nil {
		s.tk = vec.NewTopK(k)
	} else {
		s.tk.Reset(k)
	}
	data := ix.data.Data()
	for b0 := 0; b0 < n; b0 += scanBlock {
		bn := n - b0
		if bn > scanBlock {
			bn = scanBlock
		}
		vec.L2SquaredBatch(q, data[b0*ix.dim:], bn, s.dist)
		dist := s.dist[:bn]
		ids := ix.ids[b0 : b0+bn]
		worst, full := s.tk.WorstScore()
		for i, id := range ids {
			d := dist[i]
			if full && d > worst {
				continue
			}
			s.tk.Push(id, d)
			worst, full = s.tk.WorstScore()
		}
	}
	return s.tk.AppendResults(dst)
}
