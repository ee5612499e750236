package ivf

import (
	"fmt"
	"time"

	"repro/internal/quant"
	"repro/internal/vec"
)

// This file implements the shared multi-query grouped cell scan (ISSUE 8 /
// ROADMAP item 3). When G queries of one batch probe the same IVF cell, the
// sequential path streams that cell's codes through the kernels G times; the
// grouped path streams them once per block and evaluates all G bound queries
// against the block while it is hot in cache. The distance kernels, the block
// boundaries, and the fold into vec.TopK are exactly the single-query path's,
// so per-query results are bit-equivalent to sequential execution: the only
// divergence is per-query cell visit order, and vec.TopK's (score, id) total
// order makes the retained set independent of it (DESIGN.md §13).

// cellRef names one (cell, query-slot) probe. The grouped scan buckets the
// batch's refs by cell so co-probing queries form contiguous runs.
type cellRef struct {
	cell int32
	slot int32
}

// groupSlot is the per-query state inside a GroupSearcher: its own distance
// kernel (kernels carry per-query tables — PQ ADC tables, SQ4 LUTs — so they
// cannot be shared across queries), its own top-k selector, its residual
// buffer, and its selected probe cells. Slots are lazily created and then
// recycled with the GroupSearcher.
type groupSlot struct {
	kernel  quant.BatchDistancer
	tk      *vec.TopK
	qres    []float32 // query residual vs. the probed centroid (ByResidual)
	q       []float32 // the bound query, alive for the whole group scan
	cells   []int32   // selected probe cells, ascending centroid distance
	scanned int       // live vectors this query logically scanned

	// Cost-ledger counters (ISSUE 9). shared counts probe cells whose code
	// stream was shared with at least one other query of the batch;
	// exclusive/amortized split the distinct streamed codes attributed to
	// this query: codes streamed solely for it versus its exact share of
	// streams it co-probed. Across a batch,
	// sum(exclusive+amortized) == GroupStats.VectorsScanned.
	shared    int
	exclusive int64
	amortized int64
}

// CostStats is one query's slice of a grouped batch's cost ledger, in
// attribution terms rather than the logical terms of SearchStats:
// CodesExclusive counts live codes streamed solely for this query,
// CodesAmortized this query's exact share of streams it co-probed with other
// queries (shares differ by at most one code; remainders go to the
// lowest-numbered slots, so the split is deterministic). Summed over a batch,
// CodesExclusive+CodesAmortized equals GroupStats.VectorsScanned exactly —
// the distinct code traffic, fully attributed, nothing double-counted.
type CostStats struct {
	CellsProbed    int
	SharedCells    int // probe cells whose stream was shared with >= 1 other query
	CodesExclusive int64
	CodesAmortized int64
}

// GroupStats reports the work done by one grouped batch. VectorsScanned
// counts distinct streamed vectors (the actual code traffic); each query's
// logical scan count — what the sequential path would have streamed — is
// available per slot via QueryStats. SharedCellScans is the number of cell
// scans the grouping avoided: sum over cells of (co-probing queries - 1).
type GroupStats struct {
	Queries         int
	CellsScanned    int // distinct (cell) visits streamed once
	SharedCellScans int // cell scans saved vs. per-query execution
	VectorsScanned  int // distinct live vectors streamed
}

// GroupSearcher executes a batch of queries with shared per-cell scans. Like
// Searcher it owns all scratch — per-query slots, the shared block distance
// buffer, the (cell, slot) ref list, and the probe-selection heap — so a
// warmed GroupSearcher serves an unbounded stream of batches with zero heap
// allocations. It is not safe for concurrent use; create one per goroutine
// (or let Index.SearchGroup draw from the index's internal pool). Results are
// held in the per-slot selectors until drained with AppendResults, which is
// destructive and must be called at most once per slot per Search.
type GroupSearcher struct {
	ix    *Index
	slots []*groupSlot
	dist  []float32 // shared per-block distances, scanBlock long
	pairs []cellRef // (cell, slot) refs, bucketed by cell then slot
	offs  []int32   // per-cell counting-sort offsets, NList+1 long
	heap  []cellDist
	n     int  // queries in the current batch
	empty bool // true until a Search completes; guards stale results

	// ph points at phase when the current batch is phased (SearchPhased);
	// nil keeps every clock read off the untraced path, exactly like
	// Searcher.search's ph parameter. AppendResults folds its drain time
	// into phase.Merge while armed.
	ph    *PhaseNanos
	phase PhaseNanos
}

// NewGroupSearcher returns a fresh grouped-scan handle. All buffers grow on
// first use and are reused afterwards.
func (ix *Index) NewGroupSearcher() *GroupSearcher {
	return &GroupSearcher{
		ix:    ix,
		dist:  make([]float32, scanBlock),
		empty: true,
	}
}

// getGroupSearcher draws a warmed GroupSearcher from the index pool.
func (ix *Index) getGroupSearcher() *GroupSearcher {
	if g, ok := ix.groupPool.Get().(*GroupSearcher); ok {
		//lint:ignore poolescape typed pool accessor: every getGroupSearcher is paired with a groupPool.Put by Index.SearchGroup, which keeps the Get/Put bracket one level up
		return g
	}
	return ix.NewGroupSearcher()
}

// Search runs all queries against the index with shared per-cell scans,
// retaining each query's top-k in its slot (drain with AppendResults). Every
// query probes its own nProbe closest cells exactly as the single-query path
// would; only the execution order is grouped. The query slices must stay
// unmodified until the next Search (kernels bind them by reference).
//
// The //hermes:hotpath contract applies: steady-state batches on a warmed
// GroupSearcher perform no heap allocations and never read the clock.
//
//hermes:hotpath
func (g *GroupSearcher) Search(queries [][]float32, k, nProbe int) GroupStats {
	return g.search(queries, k, nProbe, nil)
}

// SearchPhased is Search plus a batch-level per-phase wall-time breakdown:
// probe selection (per-query setup and the counting-sort flatten), the shared
// per-cell scan runs, and — accumulated by the AppendResults drains that
// follow — the top-k merges. Each phase is timed once for the whole batch,
// which is the truth of grouped execution: the phases are shared, not
// per-query. Read the breakdown with Phases after draining every slot. Like
// Searcher.SearchPhased it reads the clock, so it is reserved for traced
// batches; the untraced hot path stays clock-free.
func (g *GroupSearcher) SearchPhased(queries [][]float32, k, nProbe int) GroupStats {
	g.phase = PhaseNanos{}
	return g.search(queries, k, nProbe, &g.phase)
}

// Phases returns the current batch's phase breakdown: zero unless the batch
// ran through SearchPhased, and complete only once every slot has been
// drained (AppendResults accounts the merge phase).
func (g *GroupSearcher) Phases() PhaseNanos { return g.phase }

// search is the shared body; ph non-nil turns on batch-level phase timing.
// The //hermes:hotpath contract (enforced by hermes-lint) keeps every clock
// read gated behind `if ph != nil`, so steady-state untraced batches on a
// warmed GroupSearcher perform no heap allocations and never read the clock.
//
//hermes:hotpath
func (g *GroupSearcher) search(queries [][]float32, k, nProbe int, ph *PhaseNanos) GroupStats {
	ix := g.ix
	g.n = len(queries)
	g.empty = true
	g.ph = ph
	if ph == nil {
		// A pooled searcher may have served a phased batch last; stale phase
		// numbers must not survive into this batch's Phases view.
		g.phase = PhaseNanos{}
	}
	var stats GroupStats
	stats.Queries = len(queries)
	if !ix.trained || k <= 0 || ix.count == 0 || len(queries) == 0 {
		return stats
	}
	if nProbe <= 0 {
		nProbe = 1
	}
	if nProbe > ix.cfg.NList {
		nProbe = ix.cfg.NList
	}
	if k > ix.count { // as in Searcher.search: never size a selector past the live vectors
		k = ix.count
	}
	n := len(queries)
	if cap(g.slots) < n {
		ns := make([]*groupSlot, n)
		copy(ns, g.slots)
		g.slots = ns
	}
	g.slots = g.slots[:n]

	var mark time.Time
	if ph != nil {
		mark = now()
	}
	// Per-query setup: lazily create the slot, select probe cells with the
	// same bounded-heap selection as the single-query path, and bind the
	// query into the slot's kernel (residual queries re-bind per cell).
	total := 0
	for i, q := range queries {
		if len(q) != ix.cfg.Dim {
			panic(fmt.Sprintf("ivf: SearchGroup dim %d != %d", len(q), ix.cfg.Dim))
		}
		s := g.slots[i]
		if s == nil {
			s = &groupSlot{
				kernel: quant.NewBatchDistancer(ix.cfg.Quantizer),
				qres:   make([]float32, ix.cfg.Dim),
			}
			g.slots[i] = s
		}
		if s.tk == nil {
			s.tk = vec.NewTopK(k)
		} else {
			s.tk.Reset(k)
		}
		s.q = q
		s.scanned = 0
		s.shared = 0
		s.exclusive = 0
		s.amortized = 0
		g.heap, s.cells = selectProbeCells(ix, q, nProbe, g.heap, s.cells)
		if !ix.cfg.ByResidual {
			s.kernel.BindQuery(q)
		}
		total += len(s.cells)
	}

	// Flatten to (cell, slot) refs bucketed by cell with a counting sort:
	// cells are dense in [0, NList), so co-probing queries form contiguous
	// runs without a single comparison (a comparison sort here costs ~20%
	// of grouped batch time). Scattering slots in batch order keeps the
	// within-cell order deterministic — slot ascending per cell.
	nl := ix.cfg.NList
	if cap(g.offs) < nl+1 {
		g.offs = make([]int32, nl+1)
	}
	offs := g.offs[:nl+1]
	for i := range offs {
		offs[i] = 0
	}
	for i := 0; i < n; i++ {
		for _, c := range g.slots[i].cells {
			offs[c+1]++
		}
	}
	for c := 0; c < nl; c++ {
		offs[c+1] += offs[c]
	}
	if cap(g.pairs) < total {
		g.pairs = make([]cellRef, total)
	}
	g.pairs = g.pairs[:total]
	for i := 0; i < n; i++ {
		for _, c := range g.slots[i].cells {
			g.pairs[offs[c]] = cellRef{cell: c, slot: int32(i)}
			offs[c]++
		}
	}

	if ph != nil {
		t := now()
		ph.Select += t.Sub(mark).Nanoseconds()
		mark = t
	}

	cs := ix.cfg.Quantizer.CodeSize()
	pairs := g.pairs
	for p0 := 0; p0 < len(pairs); {
		c := pairs[p0].cell
		p1 := p0 + 1
		for p1 < len(pairs) && pairs[p1].cell == c {
			p1++
		}
		group := pairs[p0:p1]
		p0 = p1
		stats.CellsScanned++
		stats.SharedCellScans += len(group) - 1
		if len(group) > 1 {
			// Shared-cell marking counts empty cells too, mirroring how
			// CellsScanned/SharedCellScans account every distinct visit.
			for _, pr := range group {
				g.slots[pr.slot].shared++
			}
		}
		l := &ix.lists[c]
		if len(l.ids) == 0 {
			continue
		}
		if ix.cfg.ByResidual {
			// Every query in the group re-binds its residual from this
			// cell's centroid before the shared stream, exactly as the
			// sequential path does per probed cell.
			centroid := ix.centroids.Row(int(c))
			for _, pr := range group {
				s := g.slots[pr.slot]
				for d := range s.q {
					s.qres[d] = s.q[d] - centroid[d]
				}
				s.kernel.BindQuery(s.qres)
			}
		}
		var dead []uint32
		if ix.deadCount > 0 && ix.deadPos != nil {
			dead = ix.deadPos[c]
		}
		live := g.scanCellGroup(l, cs, dead, group)
		stats.VectorsScanned += live
		if len(group) == 1 {
			s := g.slots[group[0].slot]
			s.scanned += live
			s.exclusive += int64(live)
		} else {
			// Amortize the one shared stream across its co-probers exactly:
			// each gets floor(live/G), the first live%G slots (deterministic —
			// the counting sort scatters slots ascending within a cell) one
			// more. The split sums to live, so batch-wide
			// Σ(exclusive+amortized) == VectorsScanned with no rounding loss.
			gN := len(group)
			share := int64(live / gN)
			rem := live % gN
			for j, pr := range group {
				s := g.slots[pr.slot]
				s.scanned += live
				s.amortized += share
				if j < rem {
					s.amortized++
				}
			}
		}
	}
	if ph != nil {
		ph.Scan += now().Sub(mark).Nanoseconds()
	}
	g.empty = false
	return stats
}

// scanCellGroup streams one inverted list block by block; each block's codes
// are evaluated for every query in the group while the block is cache-hot.
// The per-query distance computation and top-k fold are identical to
// Searcher.scanList (same kernels, same block boundaries, same tombstone
// cursor), which is what makes grouped results bit-equivalent. It returns the
// number of distinct live vectors streamed.
//
//hermes:hotpath
func (g *GroupSearcher) scanCellGroup(l *invList, cs int, dead []uint32, group []cellRef) int {
	n := len(l.ids)
	live := 0
	diBase := 0
	for b0 := 0; b0 < n; b0 += scanBlock {
		bn := n - b0
		if bn > scanBlock {
			bn = scanBlock
		}
		codes := l.codes[b0*cs:]
		ids := l.ids[b0 : b0+bn]
		blockLive := bn
		for _, pr := range group {
			s := g.slots[pr.slot]
			s.kernel.DistanceBatch(codes, bn, g.dist)
			dist := g.dist[:bn]
			tk := s.tk
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
				continue
			}
			// Each query replays the same dead-position cursor over the
			// block; the cursor base advances once per block below.
			di := diBase
			lv := 0
			for i, id := range ids {
				pos := uint32(b0 + i)
				for di < len(dead) && dead[di] < pos {
					di++
				}
				if di < len(dead) && dead[di] == pos {
					di++
					continue
				}
				lv++
				d := dist[i]
				if full && d > worst {
					continue
				}
				tk.Push(id, d)
				worst, full = tk.WorstScore()
			}
			blockLive = lv
		}
		if len(dead) != 0 {
			end := uint32(b0 + bn)
			for diBase < len(dead) && dead[diBase] < end {
				diBase++
			}
		}
		live += blockLive
	}
	return live
}

// AppendResults drains query i's neighbors (best first) into dst and returns
// it. Destructive: a slot can be drained once per Search. Out-of-range
// indexes and searches that returned early yield dst unchanged. After
// SearchPhased the drain time folds into the batch's merge phase; on the
// untraced path g.ph is nil and the clock is never read.
func (g *GroupSearcher) AppendResults(i int, dst []vec.Neighbor) []vec.Neighbor {
	if g.empty || i < 0 || i >= g.n {
		return dst
	}
	if g.ph != nil {
		mark := now()
		dst = g.slots[i].tk.AppendResults(dst)
		g.ph.Merge += now().Sub(mark).Nanoseconds()
		return dst
	}
	return g.slots[i].tk.AppendResults(dst)
}

// QueryStats reports query i's work in sequential-path terms: cells it
// probed and live vectors it logically scanned (shared streams count once
// per query here, matching what Searcher would have reported).
func (g *GroupSearcher) QueryStats(i int) SearchStats {
	if g.empty || i < 0 || i >= g.n {
		return SearchStats{}
	}
	s := g.slots[i]
	return SearchStats{CellsProbed: len(s.cells), VectorsScanned: s.scanned}
}

// CostStats reports query i's slice of the batch's cost ledger — its probe
// cells, how many of those streams it shared, and its exact
// exclusive/amortized split of the distinct codes streamed (see the CostStats
// type). Zero for out-of-range indexes and searches that returned early.
func (g *GroupSearcher) CostStats(i int) CostStats {
	if g.empty || i < 0 || i >= g.n {
		return CostStats{}
	}
	s := g.slots[i]
	return CostStats{
		CellsProbed:    len(s.cells),
		SharedCells:    s.shared,
		CodesExclusive: s.exclusive,
		CodesAmortized: s.amortized,
	}
}

// SearchGroup executes all queries as one grouped batch with shared per-cell
// scans, returning each query's neighbors (best first) and the batch's work
// stats. Results are identical to running Search per query, score ties
// included (DESIGN.md §13). It draws a GroupSearcher from the index's
// internal pool, so steady-state batches allocate only the returned slices.
func (ix *Index) SearchGroup(queries [][]float32, k, nProbe int) ([][]vec.Neighbor, GroupStats) {
	out := make([][]vec.Neighbor, len(queries))
	if !ix.trained || k <= 0 || ix.count == 0 || len(queries) == 0 {
		return out, GroupStats{Queries: len(queries)}
	}
	g := ix.getGroupSearcher()
	stats := g.Search(queries, k, nProbe)
	for i := range queries {
		out[i] = g.AppendResults(i, nil)
	}
	ix.groupPool.Put(g)
	return out, stats
}

// SearchGroupCosted is SearchGroup plus the per-query cost ledger and — when
// phased — the batch-level phase breakdown. phased=false keeps the untraced
// contract (no clock reads, zero PhaseNanos); phased=true runs the batch
// through SearchPhased, so the returned PhaseNanos carries the shared
// select/scan wall time and the summed drain (merge) time. Results are
// identical either way: phasing only adds timestamps around the same code.
func (ix *Index) SearchGroupCosted(queries [][]float32, k, nProbe int, phased bool) ([][]vec.Neighbor, GroupStats, PhaseNanos, []CostStats) {
	out := make([][]vec.Neighbor, len(queries))
	costs := make([]CostStats, len(queries))
	if !ix.trained || k <= 0 || ix.count == 0 || len(queries) == 0 {
		return out, GroupStats{Queries: len(queries)}, PhaseNanos{}, costs
	}
	g := ix.getGroupSearcher()
	var stats GroupStats
	if phased {
		stats = g.SearchPhased(queries, k, nProbe)
	} else {
		stats = g.Search(queries, k, nProbe)
	}
	for i := range queries {
		out[i] = g.AppendResults(i, nil)
		costs[i] = g.CostStats(i)
	}
	// Phases is complete only after every slot has been drained: the merge
	// component accumulates in AppendResults.
	ph := g.Phases()
	ix.groupPool.Put(g)
	return out, stats, ph, costs
}

// PredictCells appends the nProbe cells q would probe (ascending centroid
// distance) to dst[:0] and returns it. This is the batcher's grouping
// signal: it is the exact probe selection Search will perform, so two
// queries with overlapping predictions will share cell streams when
// executed as a group. Untrained indexes and dimension mismatches predict
// nothing.
func (ix *Index) PredictCells(dst []int32, q []float32, nProbe int) []int32 {
	if !ix.trained || len(q) != ix.cfg.Dim {
		return dst[:0]
	}
	if nProbe <= 0 {
		nProbe = 1
	}
	if nProbe > ix.cfg.NList {
		nProbe = ix.cfg.NList
	}
	heap := make([]cellDist, 0, nProbe)
	_, dst = selectProbeCells(ix, q, nProbe, heap, dst)
	return dst
}
