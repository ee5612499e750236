package ivf

import (
	"fmt"
	"time"

	"repro/internal/quant"
	"repro/internal/vec"
)

// This file is the index's one list-scan executor. A Searcher runs a batch
// of queries: each query selects its own nProbe closest cells, and queries
// that probe the same cell share one pass over its codes — every block of
// the cell is evaluated for all of them while it is hot in cache (the shared
// cell scans of CaGR-RAG, placed on the node as in HedraRAG). A single query
// is a batch of one. Every query's distances come from its own kernel over
// the same block boundaries and fold into its own top-k through one
// function, so a query's answer does not depend on the batch it rides in:
// only the cell visit order differs, and vec.TopK's (score, id) total order
// makes the retained set independent of it (DESIGN.md §13).

// now is the injectable clock seam used by the phased-search accounting;
// tests swap it to step time deterministically.
var now = time.Now

// PhaseNanos is the per-phase wall time of one or more batches, in
// nanoseconds: coarse probe-cell selection, inverted-list scanning, and
// top-k result extraction. A batch given a non-nil *PhaseNanos adds its
// phases to it, so a caller sums several batches by passing the same one.
// It exists so the serving node can ship a true per-phase breakdown to the
// coordinator without the untraced hot path ever reading the clock.
type PhaseNanos struct {
	Select int64
	Scan   int64
	Merge  int64
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

// cellRef names one (cell, query-slot) probe. A batch orders its refs so
// that the queries probing one cell form a contiguous run.
type cellRef struct {
	cell int32
	slot int32
}

// slot is the per-query state of a Searcher batch: its own distance kernel
// (kernels carry per-query tables — PQ ADC tables, SQ4 LUTs — so they cannot
// be shared across queries), its top-k selector and extracted results, its
// residual buffer, and its selected probe cells. Slots are created on first
// use and recycled with the Searcher.
type slot struct {
	kernel  quant.BatchDistancer
	tk      *vec.TopK
	res     []vec.Neighbor // the batch's answer, best first
	qres    []float32      // query residual vs. the probed centroid (ByResidual)
	q       []float32      // the bound query, alive for the whole batch
	cells   []int32        // selected probe cells, ascending centroid distance
	scanned int            // live vectors this query logically scanned

	// Cost-ledger counters. shared counts probe cells whose code stream was
	// shared with at least one other query of the batch; exclusive/amortized
	// split the distinct streamed codes attributed to this query: codes
	// streamed solely for it versus its exact share of streams it co-probed.
	// Across a batch, sum(exclusive+amortized) == GroupStats.VectorsScanned.
	shared    int
	exclusive int64
	amortized int64
}

// CostStats is one query's slice of a batch's cost ledger, in attribution
// terms rather than the logical terms of SearchStats: CodesExclusive counts
// live codes streamed solely for this query, CodesAmortized this query's
// exact share of streams it co-probed with other queries (shares differ by
// at most one code; remainders go to the lowest-numbered slots, so the split
// is deterministic). Summed over a batch, CodesExclusive+CodesAmortized
// equals GroupStats.VectorsScanned exactly — the distinct code traffic,
// fully attributed, nothing double-counted. A batch of one has only
// exclusive codes.
type CostStats struct {
	CellsProbed    int
	SharedCells    int // probe cells whose stream was shared with >= 1 other query
	CodesExclusive int64
	CodesAmortized int64
}

// GroupStats reports the work done by one batch. VectorsScanned counts
// distinct streamed vectors (the actual code traffic); each query's logical
// scan count — what it would have streamed alone — is available per slot via
// QueryStats. SharedCellScans is the number of cell scans the sharing
// avoided: sum over cells of (co-probing queries - 1).
type GroupStats struct {
	Queries         int
	CellsScanned    int // distinct (cell) visits streamed once
	SharedCellScans int // cell scans saved vs. per-query execution
	VectorsScanned  int // distinct live vectors streamed
}

// Searcher is a reusable handle for running queries against one Index. It
// owns all per-batch scratch — per-query slots, the shared block distance
// buffer, the (cell, slot) ref list, and the probe-selection heap — so a
// warmed Searcher serves an unbounded stream of queries and batches with
// zero heap allocations beyond the caller-visible result slices.
//
// A Searcher is not safe for concurrent use; create one per goroutine (or
// let Index.Search draw from the index's internal pool). It must not be used
// across Train calls. A batch's results stay readable through
// AppendResults, QueryStats and CostStats until the next batch.
type Searcher struct {
	ix    *Index
	slots []*slot
	one   [1][]float32 // Search's batch of one
	dist  []float32    // shared per-block distances, scanBlock long
	pairs []cellRef    // (cell, slot) refs, one run per probed cell
	offs  []int32      // per-cell counting-sort offsets, NList+1 long
	heap  []cellDist
	n     int // queries of the last batch; 0 when it returned early
}

// NewSearcher returns a fresh search handle. All buffers grow on first use
// and are reused afterwards.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix, dist: make([]float32, scanBlock)}
}

// getSearcher draws a warmed Searcher from the index pool.
func (ix *Index) getSearcher() *Searcher {
	if s, ok := ix.pool.Get().(*Searcher); ok {
		//lint:ignore poolescape typed pool accessor: every getSearcher is paired with a deferred pool.Put by Index.SearchWithStats, which keeps the Get/Put bracket one level up
		return s
	}
	return ix.NewSearcher()
}

// Search runs q as a batch of one and appends its neighbors (best first) to
// dst, so a caller that recycles dst pays only for neighbors it has not
// preallocated room for.
func (s *Searcher) Search(dst []vec.Neighbor, q []float32, k, nProbe int) ([]vec.Neighbor, SearchStats) {
	s.one[0] = q
	s.SearchGroup(s.one[:], k, nProbe, nil)
	return s.AppendResults(0, dst), s.QueryStats(0)
}

// SearchGroup runs queries as one batch with shared per-cell scans, keeping
// each query's answer in its slot (read with AppendResults). Every query
// probes its own nProbe closest cells exactly as it would alone; only the
// execution order is shared. The query slices must stay unmodified until the
// batch returns (kernels bind them by reference).
//
// A non-nil ph accumulates the batch's select/scan/merge wall time; each
// phase is timed once for the whole batch, which is the truth of shared
// execution. The //hermes:hotpath contract (enforced by hermes-lint) keeps
// every clock read behind `if ph != nil`: a warmed Searcher serving a nil-ph
// batch performs no heap allocations and never reads the clock.
//
//hermes:hotpath
func (s *Searcher) SearchGroup(queries [][]float32, k, nProbe int, ph *PhaseNanos) GroupStats {
	ix := s.ix
	s.n = 0
	stats := GroupStats{Queries: len(queries)}
	if !ix.trained || k <= 0 || ix.count == 0 || len(queries) == 0 {
		return stats
	}
	// Clamp nProbe on both sides: a non-positive request probes one cell, a
	// request beyond NList probes everything. No search can return more than
	// the live vectors, so a selector is never sized past them, whatever k a
	// caller (or a peer) asks for.
	nProbe = min(max(nProbe, 1), ix.cfg.NList)
	k = min(k, ix.count)
	var mark time.Time
	if ph != nil {
		mark = now()
	}
	s.selectAll(queries, k, nProbe)
	if ph != nil {
		t := now()
		ph.Select += t.Sub(mark).Nanoseconds()
		mark = t
	}
	stats = s.scanAll(stats)
	if ph != nil {
		t := now()
		ph.Scan += t.Sub(mark).Nanoseconds()
		mark = t
	}
	for _, sl := range s.slots[:len(queries)] {
		sl.res = sl.tk.AppendResults(sl.res[:0])
	}
	if ph != nil {
		ph.Merge += now().Sub(mark).Nanoseconds()
	}
	s.n = len(queries)
	return stats
}

// selectAll readies one slot per query — its top-k, its kernel bound to the
// query (residual queries re-bind per cell), its probe cells — and orders
// the batch's (cell, slot) refs into per-cell runs.
//
//hermes:hotpath
func (s *Searcher) selectAll(queries [][]float32, k, nProbe int) {
	ix := s.ix
	total := 0
	for i, q := range queries {
		if len(q) != ix.cfg.Dim {
			panic(fmt.Sprintf("ivf: Search dim %d != %d", len(q), ix.cfg.Dim))
		}
		if i == len(s.slots) {
			s.slots = append(s.slots, &slot{
				kernel: quant.NewBatchDistancer(ix.cfg.Quantizer),
				qres:   make([]float32, ix.cfg.Dim),
			})
		}
		sl := s.slots[i]
		if sl.tk == nil {
			sl.tk = vec.NewTopK(k)
		} else {
			sl.tk.Reset(k)
		}
		sl.q = q
		sl.scanned, sl.shared, sl.exclusive, sl.amortized = 0, 0, 0, 0
		s.heap, sl.cells = selectProbeCells(ix, q, nProbe, s.heap, sl.cells)
		if !ix.cfg.ByResidual {
			sl.kernel.BindQuery(q)
		}
		total += len(sl.cells)
	}
	if cap(s.pairs) < total {
		s.pairs = make([]cellRef, total)
	}
	s.pairs = s.pairs[:total]
	if len(queries) == 1 {
		// A batch of one shares nothing: it visits its cells in probe order,
		// nearest first, which also fills its top-k with good candidates
		// early.
		for i, c := range s.slots[0].cells {
			s.pairs[i] = cellRef{cell: c}
		}
		return
	}
	// Bucket refs by cell with a counting sort: cells are dense in
	// [0, NList), so co-probing queries form contiguous runs without a
	// single comparison (a comparison sort here costs ~20% of batch time).
	// Scattering slots in batch order keeps the within-cell order
	// deterministic — slot ascending per cell.
	nl := ix.cfg.NList
	if cap(s.offs) < nl+1 {
		s.offs = make([]int32, nl+1)
	}
	offs := s.offs[:nl+1]
	clear(offs)
	for _, sl := range s.slots[:len(queries)] {
		for _, c := range sl.cells {
			offs[c+1]++
		}
	}
	for c := 0; c < nl; c++ {
		offs[c+1] += offs[c]
	}
	for i, sl := range s.slots[:len(queries)] {
		for _, c := range sl.cells {
			s.pairs[offs[c]] = cellRef{cell: c, slot: int32(i)}
			offs[c]++
		}
	}
}

// scanAll streams each probed cell once for the run of queries that probe
// it, keeps the batch's ledger, and returns stats with the batch's cell and
// code traffic added.
//
//hermes:hotpath
func (s *Searcher) scanAll(stats GroupStats) GroupStats {
	ix := s.ix
	cs := ix.cfg.Quantizer.CodeSize()
	pairs, slots := s.pairs, s.slots
	runs := 0
	for p0 := 0; p0 < len(pairs); {
		c := pairs[p0].cell
		p1 := p0 + 1
		for p1 < len(pairs) && pairs[p1].cell == c {
			p1++
		}
		run := pairs[p0:p1]
		p0 = p1
		runs++
		if len(run) > 1 {
			// Shared-cell marking counts empty cells too, mirroring how
			// CellsScanned/SharedCellScans account every distinct visit.
			for _, r := range run {
				slots[r.slot].shared++
			}
		}
		l := &ix.lists[c]
		if len(l.ids) == 0 {
			continue
		}
		if ix.cfg.ByResidual {
			// Distances to residual codes are computed against the query's
			// residual from the same centroid: ||q - (c + r)|| = ||(q-c) - r||.
			centroid := ix.centroids.Row(int(c))
			for _, r := range run {
				sl := slots[r.slot]
				for d := range sl.q {
					sl.qres[d] = sl.q[d] - centroid[d]
				}
				sl.kernel.BindQuery(sl.qres)
			}
		}
		var dead []uint32
		if ix.deadCount > 0 && ix.deadPos != nil {
			dead = ix.deadPos[c]
		}
		// Stream the list block by block; each block's codes are evaluated
		// for every query of the run while the block is cache-hot. Distances
		// for dead slots are computed and discarded — with block kernels
		// that is cheaper than splitting blocks around them.
		live, di := 0, 0
		for b0 := 0; b0 < len(l.ids); b0 += scanBlock {
			bn := min(len(l.ids)-b0, scanBlock)
			// The list's dead positions are sorted: the block's are the
			// next ones below its end.
			end := di
			for end < len(dead) && dead[end] < uint32(b0+bn) {
				end++
			}
			blockDead := dead[di:end]
			di = end
			for _, r := range run {
				s.fold(slots[r.slot], l, cs, b0, bn, blockDead)
			}
			live += bn - len(blockDead)
		}
		stats.VectorsScanned += live
		if len(run) == 1 {
			sl := slots[run[0].slot]
			sl.scanned += live
			sl.exclusive += int64(live)
			continue
		}
		// Amortize the one shared stream across its co-probers exactly: each
		// gets floor(live/G), the first live%G slots (deterministic — slots
		// ascend within a run) one more. The split sums to live, so
		// batch-wide Σ(exclusive+amortized) == VectorsScanned with no
		// rounding loss.
		share, rem := int64(live/len(run)), live%len(run)
		for j, r := range run {
			sl := slots[r.slot]
			sl.scanned += live
			sl.amortized += share
			if j < rem {
				sl.amortized++
			}
		}
	}
	// Every run is one distinct cell visit; every other probe of its cell
	// is a scan the sharing saved.
	stats.CellsScanned += runs
	stats.SharedCellScans += len(pairs) - runs
	return stats
}

// fold computes sl's kernel distances for the bn codes of list l from
// position b0 and pushes them into sl's top-k, skipping the block's
// tombstoned slots: dead holds their list positions, ascending. It is the
// only place a distance enters a top-k.
//
//hermes:hotpath
func (s *Searcher) fold(sl *slot, l *invList, cs, b0, bn int, dead []uint32) {
	ids, dist := l.ids[b0:b0+bn], s.dist[:bn]
	sl.kernel.DistanceBatch(l.codes[b0*cs:], bn, dist)
	tk := sl.tk
	worst, full := tk.WorstScore()
	if len(dead) == 0 { // the common case: no tombstone test per code
		for i, id := range ids {
			d := dist[i]
			if full && d > worst {
				continue
			}
			tk.Push(id, d)
			worst, full = tk.WorstScore()
		}
		return
	}
	for i, id := range ids {
		if len(dead) > 0 && dead[0] == uint32(b0+i) {
			dead = dead[1:]
			continue
		}
		d := dist[i]
		if full && d > worst {
			continue
		}
		tk.Push(id, d)
		worst, full = tk.WorstScore()
	}
}

// AppendResults appends query i's neighbors of the last batch (best first)
// to dst and returns it. Out-of-range indexes and batches that returned
// early yield dst unchanged.
func (s *Searcher) AppendResults(i int, dst []vec.Neighbor) []vec.Neighbor {
	if i < 0 || i >= s.n {
		return dst
	}
	return append(dst, s.slots[i].res...)
}

// QueryStats reports query i's work in solo terms: cells it probed and live
// vectors it logically scanned (shared streams count once per query here,
// which is what the query would have scanned alone).
func (s *Searcher) QueryStats(i int) SearchStats {
	if i < 0 || i >= s.n {
		return SearchStats{}
	}
	sl := s.slots[i]
	return SearchStats{CellsProbed: len(sl.cells), VectorsScanned: sl.scanned}
}

// CostStats reports query i's slice of the batch's cost ledger — its probe
// cells, how many of those streams it shared, and its exact
// exclusive/amortized split of the distinct codes streamed (see the CostStats
// type). Zero for out-of-range indexes and batches that returned early.
func (s *Searcher) CostStats(i int) CostStats {
	if i < 0 || i >= s.n {
		return CostStats{}
	}
	sl := s.slots[i]
	return CostStats{
		CellsProbed:    len(sl.cells),
		SharedCells:    sl.shared,
		CodesExclusive: sl.exclusive,
		CodesAmortized: sl.amortized,
	}
}

// PredictCells appends the nProbe cells q would probe (ascending centroid
// distance) to dst[:0] and returns it. This is the batcher's grouping
// signal: it is the exact probe selection a search performs, so two queries
// with overlapping predictions will share cell streams when executed as one
// batch. Untrained indexes and dimension mismatches predict nothing.
func (ix *Index) PredictCells(dst []int32, q []float32, nProbe int) []int32 {
	if !ix.trained || len(q) != ix.cfg.Dim {
		return dst[:0]
	}
	nProbe = min(max(nProbe, 1), ix.cfg.NList)
	_, dst = selectProbeCells(ix, q, nProbe, make([]cellDist, 0, nProbe), dst)
	return dst
}

// selectProbeCells fills cells with the nProbe cells whose centroids are
// closest to q, ascending by distance. Centroid distances come from
// vec.L2SquaredBatch a block at a time through a fixed stack buffer; the
// selection is a bounded max-heap partial selection — O(nlist log nProbe)
// instead of the full O(nlist log nlist) sort — and both scratch slices are
// returned (grown only on first use) so callers can pool them across
// queries.
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
