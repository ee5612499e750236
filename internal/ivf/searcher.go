package ivf

import (
	"fmt"
	"time"

	"repro/internal/quant"
	"repro/internal/vec"
)

// now is the injectable clock seam used by the phased-search accounting;
// tests swap it to step time deterministically.
var now = time.Now

// PhaseNanos is the per-phase wall time of one (or an accumulation of)
// phased searches, in nanoseconds: coarse probe-cell selection, inverted-
// list scanning, and top-k result extraction. It exists so the serving node
// can ship a true per-phase breakdown to the coordinator without the
// untraced hot path ever reading the clock.
type PhaseNanos struct {
	Select int64
	Scan   int64
	Merge  int64
}

// Add accumulates o into p (batch queries sum their phases).
func (p *PhaseNanos) Add(o PhaseNanos) {
	p.Select += o.Select
	p.Scan += o.Scan
	p.Merge += o.Merge
}

// scanBlock is the number of codes evaluated per DistanceBatch call during a
// list scan. 256 codes keeps the distance scratch (1 KiB) and the code block
// (<= 32 KiB even for Flat dim-128) inside L1/L2 while amortizing the
// per-call kernel dispatch over enough vectors that it disappears from
// profiles; larger blocks showed no further gain (DESIGN.md §8).
const scanBlock = 256

// cellDist pairs a coarse cell with its centroid distance for partial
// selection.
type cellDist struct {
	d    float32
	cell int32
}

// Searcher is a reusable handle for running queries against one Index. It
// owns all per-query scratch — the batch distance kernel and its tables, the
// block distance buffer, the residual query buffer, the top-k selector, and
// the probe-cell heap — so a warmed Searcher serves an unbounded stream of
// queries with zero heap allocations beyond the caller-visible result slice.
//
// A Searcher is not safe for concurrent use; create one per goroutine (or
// let Index.Search draw from the index's internal pool). It must not be used
// across Train calls.
type Searcher struct {
	ix     *Index
	kernel quant.BatchDistancer
	dist   []float32 // per-block distances, scanBlock long
	qres   []float32 // query residual vs. the probed centroid
	tk     *vec.TopK
	cells  []int32    // selected probe cells, ascending centroid distance
	heap   []cellDist // bounded max-heap scratch for selectCells
}

// NewSearcher returns a fresh search handle. The handle embeds a batch
// kernel for the index's quantizer; all buffers grow on first use and are
// reused afterwards.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{
		ix:     ix,
		kernel: quant.NewBatchDistancer(ix.cfg.Quantizer),
		dist:   make([]float32, scanBlock),
		qres:   make([]float32, ix.cfg.Dim),
	}
}

// getSearcher draws a warmed Searcher from the index pool.
func (ix *Index) getSearcher() *Searcher {
	if s, ok := ix.pool.Get().(*Searcher); ok {
		//lint:ignore poolescape typed pool accessor: every getSearcher is paired with putSearcher by Index.Search/SearchPhased, which keeps the Get/Put bracket one level up
		return s
	}
	return ix.NewSearcher()
}

// Search is the allocation-free-scratch variant of Index.Search: results are
// appended to dst (best first), so a caller that recycles dst pays only for
// neighbors it has not preallocated room for.
func (s *Searcher) Search(dst []vec.Neighbor, q []float32, k, nProbe int) ([]vec.Neighbor, SearchStats) {
	return s.search(dst, q, k, nProbe, nil)
}

// SearchPhased is Search plus a per-phase wall-time breakdown. Unlike the
// plain path it reads the clock (four times), so it is reserved for traced
// queries; the untraced hot path stays clock-free.
func (s *Searcher) SearchPhased(dst []vec.Neighbor, q []float32, k, nProbe int) ([]vec.Neighbor, SearchStats, PhaseNanos) {
	var ph PhaseNanos
	out, stats := s.search(dst, q, k, nProbe, &ph)
	return out, stats, ph
}

// search is the shared body; ph non-nil turns on phase timing. The
// //hermes:hotpath contract (enforced by hermes-lint) keeps every clock
// read gated behind `if ph != nil`: the untraced serving path must stay
// clock- and allocation-free, which is where PR 3's zero-allocation scan
// numbers come from.
//
//hermes:hotpath
func (s *Searcher) search(dst []vec.Neighbor, q []float32, k, nProbe int, ph *PhaseNanos) ([]vec.Neighbor, SearchStats) {
	ix := s.ix
	var stats SearchStats
	if !ix.trained || k <= 0 || ix.count == 0 {
		return dst, stats
	}
	if len(q) != ix.cfg.Dim {
		panic(fmt.Sprintf("ivf: Search dim %d != %d", len(q), ix.cfg.Dim))
	}
	// Clamp nProbe on both sides: a non-positive request probes one cell, a
	// request beyond NList probes everything (previously an out-of-range
	// panic waiting in the cell selection).
	if nProbe <= 0 {
		nProbe = 1
	}
	if nProbe > ix.cfg.NList {
		nProbe = ix.cfg.NList
	}
	// No search can return more than the live vectors, so the selector is
	// never sized past them, whatever k a caller (or a peer) asks for.
	if k > ix.count {
		k = ix.count
	}
	var mark time.Time
	if ph != nil {
		mark = now()
	}
	s.selectCells(q, nProbe)
	if ph != nil {
		t := now()
		ph.Select += t.Sub(mark).Nanoseconds()
		mark = t
	}
	if s.tk == nil {
		s.tk = vec.NewTopK(k)
	} else {
		s.tk.Reset(k)
	}
	if !ix.cfg.ByResidual {
		s.kernel.BindQuery(q)
	}
	cs := ix.cfg.Quantizer.CodeSize()
	for _, c := range s.cells {
		l := &ix.lists[c]
		stats.CellsProbed++
		if len(l.ids) == 0 {
			continue
		}
		if ix.cfg.ByResidual {
			// Distances to residual codes are computed against the query's
			// residual from the same centroid: ||q - (c + r)|| = ||(q-c) - r||.
			centroid := ix.centroids.Row(int(c))
			for d := range q {
				s.qres[d] = q[d] - centroid[d]
			}
			s.kernel.BindQuery(s.qres)
		}
		var dead []uint32
		if ix.deadCount > 0 && ix.deadPos != nil {
			dead = ix.deadPos[c]
		}
		stats.VectorsScanned += s.scanList(l, cs, dead)
	}
	if ph != nil {
		t := now()
		ph.Scan += t.Sub(mark).Nanoseconds()
		mark = t
	}
	out := s.tk.AppendResults(dst)
	if ph != nil {
		ph.Merge += now().Sub(mark).Nanoseconds()
	}
	return out, stats
}

// scanList runs the blocked kernel over one inverted list and folds the
// distances into the top-k selector, skipping tombstoned slots via a cursor
// over the sorted dead positions. It returns the number of live vectors
// scanned. Distances for dead slots are computed and discarded — with block
// kernels that is cheaper than splitting blocks around them.
//
//hermes:hotpath
func (s *Searcher) scanList(l *invList, cs int, dead []uint32) int {
	n := len(l.ids)
	tk := s.tk
	live := 0
	di := 0
	for b0 := 0; b0 < n; b0 += scanBlock {
		bn := n - b0
		if bn > scanBlock {
			bn = scanBlock
		}
		s.kernel.DistanceBatch(l.codes[b0*cs:], bn, s.dist)
		dist := s.dist[:bn]
		ids := l.ids[b0 : b0+bn]
		worst, full := tk.WorstScore()
		if len(dead) == 0 {
			for i, id := range ids {
				d := dist[i]
				if full && d > worst {
					continue
				}
				tk.Push(id, d)
				worst, full = tk.WorstScore()
			}
			live += bn
			continue
		}
		for i, id := range ids {
			pos := uint32(b0 + i)
			for di < len(dead) && dead[di] < pos {
				di++
			}
			if di < len(dead) && dead[di] == pos {
				di++
				continue
			}
			live++
			d := dist[i]
			if full && d > worst {
				continue
			}
			tk.Push(id, d)
			worst, full = tk.WorstScore()
		}
	}
	return live
}

// selectCells fills s.cells with the nProbe cells whose centroids are closest
// to q, ascending by distance, reusing the searcher's heap scratch.
//
//hermes:hotpath
func (s *Searcher) selectCells(q []float32, nProbe int) {
	s.heap, s.cells = selectProbeCells(s.ix, q, nProbe, s.heap, s.cells)
}

// selectProbeCells is the shared probe-cell selection of the single-query
// and grouped scan paths: it fills cells with the nProbe cells whose
// centroids are closest to q, ascending by distance. Centroid distances come
// from vec.L2SquaredBatch a block at a time through a fixed stack buffer;
// the selection is a bounded max-heap partial selection — O(nlist log
// nProbe) instead of the full O(nlist log nlist) sort — and both scratch
// slices are returned (grown only on first use) so callers can pool them
// across queries.
//
//hermes:hotpath
func selectProbeCells(ix *Index, q []float32, nProbe int, heap []cellDist, cells []int32) ([]cellDist, []int32) {
	if cap(heap) < nProbe {
		heap = make([]cellDist, 0, nProbe)
	}
	h := heap[:0]
	var dist [scanBlock]float32
	centroids := ix.centroids.Data()
	dim := ix.cfg.Dim
	for c0 := 0; c0 < ix.cfg.NList; c0 += scanBlock {
		cn := min(ix.cfg.NList-c0, scanBlock)
		vec.L2SquaredBatch(q, centroids[c0*dim:], cn, dist[:cn])
		for i, d := range dist[:cn] {
			if len(h) < nProbe {
				h = append(h, cellDist{d, int32(c0 + i)})
				siftUpCell(h, len(h)-1)
				continue
			}
			if d >= h[0].d {
				continue
			}
			h[0] = cellDist{d, int32(c0 + i)}
			siftDownCell(h, 0)
		}
	}
	// Heapsort extraction: repeatedly move the current max to the end, so the
	// slice ends up ascending by distance.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDownCell(h[:end], 0)
	}
	if cap(cells) < len(h) {
		cells = make([]int32, len(h))
	}
	cells = cells[:len(h)]
	for i := range h {
		cells[i] = h[i].cell
	}
	return h, cells
}

func siftUpCell(h []cellDist, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d >= h[i].d {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownCell(h []cellDist, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l].d > h[largest].d {
			largest = l
		}
		if r < n && h[r].d > h[largest].d {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
