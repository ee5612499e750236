package hermes

import (
	"time"

	"repro/internal/ivf"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// This file implements the grouped batch execution of the hierarchical
// search (ISSUE 8): instead of every query walking its shards alone, the
// batch runs each phase shard-major as one ivf.Searcher batch per shard, so
// queries that probe the same IVF cells share one code stream per cell. The
// routing decisions — shard ranking from the sampled document, DeepClusters
// budget, PruneEps cut — are replicated per query exactly, so results match
// sequential Search (see DESIGN.md §13 for the tie-at-k caveat).

// segRef locates one query's deep results for one shard inside the scratch's
// flat result buffer, aligned with the query's ranked deep-shard list so the
// final fold replays the sequential push order.
type segRef struct {
	off int32
	n   int32
}

// groupScratch is the per-batch reusable state of SearchGrouped: one warmed
// Searcher per shard plus the per-query routing and result-staging
// slices. Recycled through Store.groupPool; one scratch serves one batch at
// a time.
type groupScratch struct {
	groupers      []*ivf.Searcher // per shard, lazily created
	qrows         [][]float32     // deep-phase per-shard query gather
	orders        [][]rankedShard // per-query shard ranking
	deeps         [][]int32       // per-query chosen deep shards, ranked
	segs          [][]segRef      // per-query deep segments, aligned with deeps
	buckets       [][]int32       // per-shard deep-phase query indices
	sampleScanned []int
	deepScanned   []int
	buf           []vec.Neighbor // flat deep-result staging
	drain         []vec.Neighbor // sample top-1 drain buffer
	tk            *vec.TopK
}

func (st *Store) getGroupScratch() *groupScratch {
	if sc, ok := st.groupPool.Get().(*groupScratch); ok && len(sc.groupers) == len(st.Shards) {
		//lint:ignore poolescape typed pool accessor: every getGroupScratch is paired with a groupPool.Put by SearchGrouped, which keeps the Get/Put bracket one level up
		return sc
	}
	return &groupScratch{
		groupers: make([]*ivf.Searcher, len(st.Shards)),
		buckets:  make([][]int32, len(st.Shards)),
	}
}

// sizeFor (re)shapes the per-query slices for a batch of n queries, keeping
// grown backing arrays across batches.
func (sc *groupScratch) sizeFor(n int) {
	if cap(sc.orders) < n {
		sc.orders = make([][]rankedShard, n)
		sc.deeps = make([][]int32, n)
		sc.segs = make([][]segRef, n)
		sc.sampleScanned = make([]int, n)
		sc.deepScanned = make([]int, n)
	}
	sc.orders = sc.orders[:n]
	sc.deeps = sc.deeps[:n]
	sc.segs = sc.segs[:n]
	sc.sampleScanned = sc.sampleScanned[:n]
	sc.deepScanned = sc.deepScanned[:n]
	for i := 0; i < n; i++ {
		sc.orders[i] = sc.orders[i][:0]
		sc.deeps[i] = sc.deeps[i][:0]
		sc.segs[i] = sc.segs[i][:0]
		sc.sampleScanned[i] = 0
		sc.deepScanned[i] = 0
	}
	for s := range sc.buckets {
		sc.buckets[s] = sc.buckets[s][:0]
	}
	sc.buf = sc.buf[:0]
}

func (sc *groupScratch) grouper(st *Store, s int) *ivf.Searcher {
	if sc.groupers[s] == nil {
		sc.groupers[s] = st.Shards[s].Index.NewSearcher()
	}
	return sc.groupers[s]
}

// BatchGroupStats aggregates the shared-scan accounting of one grouped
// batch, per phase. SharedCellScans is the number of per-cell code streams
// the grouping avoided versus per-query execution.
type BatchGroupStats struct {
	Sample ivf.GroupStats
	Deep   ivf.GroupStats
}

// SharedCellScans totals the cell streams saved across both phases.
func (s BatchGroupStats) SharedCellScans() int {
	return s.Sample.SharedCellScans + s.Deep.SharedCellScans
}

// SearchGrouped runs the hierarchical search for the whole batch with shared
// multi-query cell scans. Per query it is the same two-phase algorithm as
// Search — sample one document per shard at SampleNProbe, rank, deep-search
// the top DeepClusters shards (PruneEps cut included) at DeepNProbe, fold —
// and returns the same neighbors and stats; only the execution order is
// grouped, shard-major instead of query-major. The query slices must stay
// unmodified for the duration of the call.
//
// Every BatchResult carries the query's cost-ledger entry (cells probed,
// codes split exclusive/amortized); the counters ride the pooled scratch, so
// the untraced path stays allocation- and clock-free.
func (st *Store) SearchGrouped(qs [][]float32, p Params) ([]BatchResult, BatchGroupStats) {
	return st.searchGrouped(qs, p, nil)
}

// SearchGroupedTraced is SearchGrouped with batch-level tracing: the shared
// phases land on tr as one span each (sample, rank, deep — they are executed
// once for the whole batch, so they are traced once for the whole batch), the
// shard scans run phased so each query's Cost.ScanNanos carries its share of
// the measured scan time (distributed in proportion to attributed codes; the
// shares sum exactly to the measured total). Results are DeepEqual-identical
// to the untraced path — tracing only adds timestamps around the same code.
func (st *Store) SearchGroupedTraced(qs [][]float32, p Params, tr *telemetry.Trace) ([]BatchResult, BatchGroupStats) {
	return st.searchGrouped(qs, p, tr)
}

func (st *Store) searchGrouped(qs [][]float32, p Params, tr *telemetry.Trace) ([]BatchResult, BatchGroupStats) {
	p = p.withDefaults()
	n := len(qs)
	out := make([]BatchResult, n)
	var gstats BatchGroupStats
	if n == 0 {
		return out, gstats
	}
	st.met.searches.Add(int64(n))
	st.met.groupedQueries.Add(int64(n))
	sc := st.getGroupScratch()
	defer st.groupPool.Put(sc)
	sc.sizeFor(n)

	// ph accumulates the measured shard-scan phases of the batch (ivf phase
	// timers, both search phases, every shard); its Scan component is
	// attributed across queries after the fold. Armed only when traced — the
	// untraced path never reads a clock, so its ledger entries carry zero
	// scan time by contract.
	var ph ivf.PhaseNanos
	var timed *ivf.PhaseNanos
	var mark time.Time
	if tr != nil {
		timed = &ph
		mark = now()
	}

	// Phase 1 — grouped document sampling: every shard streams its sampled
	// cells once for all n queries. Shard-major iteration appends to each
	// query's ranking in shard order, exactly like the sequential loop, so
	// sortRanked sees identical input.
	for s := range st.Shards {
		g := sc.grouper(st, s)
		stats := g.SearchGroup(qs, 1, p.SampleNProbe, timed)
		gstats.Sample.Queries += stats.Queries
		gstats.Sample.CellsScanned += stats.CellsScanned
		gstats.Sample.SharedCellScans += stats.SharedCellScans
		gstats.Sample.VectorsScanned += stats.VectorsScanned
		for qi := range qs {
			sc.sampleScanned[qi] += g.QueryStats(qi).VectorsScanned
			c := g.CostStats(qi)
			out[qi].Cost.Cells += int64(c.CellsProbed)
			out[qi].Cost.SharedCells += int64(c.SharedCells)
			out[qi].Cost.CodesExclusive += c.CodesExclusive
			out[qi].Cost.CodesAmortized += c.CodesAmortized
			sc.drain = g.AppendResults(qi, sc.drain[:0])
			if len(sc.drain) == 0 {
				continue
			}
			sc.orders[qi] = append(sc.orders[qi], rankedShard{sc.drain[0].Score, int32(s)})
		}
	}
	if tr != nil {
		t := now()
		tr.AddSpan("sample", telemetry.NodeLocal, mark, t.Sub(mark))
		mark = t
	}

	// Per-query routing: rank shards and choose the deep set under the
	// DeepClusters budget and the PruneEps cut — both depend only on the
	// ranking, so the choice is identical to the sequential interleaving.
	for qi := range qs {
		order := sc.orders[qi]
		sortRanked(order)
		deep := p.DeepClusters
		if deep > len(order) {
			deep = len(order)
		}
		for i, r := range order[:deep] {
			if p.PruneEps > 0 && i > 0 && float64(r.d) > (1+p.PruneEps)*float64(order[0].d) {
				break
			}
			sc.deeps[qi] = append(sc.deeps[qi], r.shard)
			sc.buckets[r.shard] = append(sc.buckets[r.shard], int32(qi))
		}
	}
	if tr != nil {
		t := now()
		tr.AddSpan("rank", telemetry.NodeLocal, mark, t.Sub(mark))
		mark = t
	}

	// Phase 2 — grouped deep search, shard-major over the buckets. Each
	// query's per-shard results are staged in ranked-list order so the final
	// fold replays the sequential push sequence.
	for s := range st.Shards {
		bucket := sc.buckets[s]
		if len(bucket) == 0 {
			continue
		}
		sc.qrows = sc.qrows[:0]
		for _, qi := range bucket {
			sc.qrows = append(sc.qrows, qs[qi])
		}
		g := sc.grouper(st, s)
		stats := g.SearchGroup(sc.qrows, p.K, p.DeepNProbe, timed)
		gstats.Deep.Queries += stats.Queries
		gstats.Deep.CellsScanned += stats.CellsScanned
		gstats.Deep.SharedCellScans += stats.SharedCellScans
		gstats.Deep.VectorsScanned += stats.VectorsScanned
		for bi, qi := range bucket {
			sc.deepScanned[qi] += g.QueryStats(bi).VectorsScanned
			c := g.CostStats(bi)
			out[qi].Cost.Cells += int64(c.CellsProbed)
			out[qi].Cost.SharedCells += int64(c.SharedCells)
			out[qi].Cost.CodesExclusive += c.CodesExclusive
			out[qi].Cost.CodesAmortized += c.CodesAmortized
			off := int32(len(sc.buf))
			sc.buf = g.AppendResults(bi, sc.buf)
			seg := segRef{off: off, n: int32(len(sc.buf)) - off}
			// Place the segment at this shard's rank position in the
			// query's deep list.
			deeps := sc.deeps[qi]
			for len(sc.segs[qi]) < len(deeps) {
				sc.segs[qi] = append(sc.segs[qi], segRef{})
			}
			for j, ds := range deeps {
				if ds == int32(s) {
					sc.segs[qi][j] = seg
					break
				}
			}
		}
	}
	if tr != nil {
		tr.AddSpan("deep", telemetry.NodeLocal, mark, now().Sub(mark))
	}

	// Fold: per query, push each deep shard's results in ranked order into a
	// fresh top-k — the same order sequential Search pushes them.
	for qi := range qs {
		tk := sc.topK(p.K)
		stats := SearchStats{
			SampledShards: len(st.Shards),
			SampleScanned: sc.sampleScanned[qi],
			DeepScanned:   sc.deepScanned[qi],
		}
		for j, s := range sc.deeps[qi] {
			stats.DeepShards = append(stats.DeepShards, int(s))
			seg := sc.segs[qi][j]
			for _, nb := range sc.buf[seg.off : seg.off+seg.n] {
				tk.Push(nb.ID, nb.Score)
			}
		}
		out[qi].Neighbors = tk.Results()
		out[qi].Stats = stats
	}

	// Attribute the measured scan time across the batch in proportion to
	// attributed codes, summing exactly to the measured total. Traced only:
	// untraced ledgers carry zero scan time (the hot path never reads a
	// clock), and their sum — zero — still matches the (unmeasured) total.
	if tr != nil && ph.Scan > 0 {
		weights := make([]int64, n)
		for qi := range qs {
			weights[qi] = out[qi].Cost.Codes()
		}
		for qi, share := range telemetry.AttributeTotal(ph.Scan, weights) {
			out[qi].Cost.ScanNanos = share
		}
	}

	totalSample, totalDeep := 0, 0
	for qi := range qs {
		totalSample += sc.sampleScanned[qi]
		totalDeep += sc.deepScanned[qi]
	}
	st.met.sampleScanned.Add(int64(totalSample))
	st.met.deepScanned.Add(int64(totalDeep))
	st.met.groupSharedScans.Add(int64(gstats.SharedCellScans()))
	return out, gstats
}

// topK returns the scratch's top-k selector reset for a fresh query.
func (sc *groupScratch) topK(k int) *vec.TopK {
	if sc.tk == nil {
		sc.tk = vec.NewTopK(k)
	} else {
		sc.tk.Reset(k)
	}
	return sc.tk
}

// SearchBatchGrouped is SearchGrouped over a matrix of queries, mirroring
// SearchBatch's signature for drop-in comparison.
func (st *Store) SearchBatchGrouped(queries *vec.Matrix, p Params) []BatchResult {
	qs := make([][]float32, queries.Len())
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	out, _ := st.SearchGrouped(qs, p)
	return out
}

// PredictCells is the batcher's grouping signal (batcher.PredictFunc shape):
// it returns the (shard, cell) keys q is expected to deep-search, encoded as
// shard<<32 | cell. Shards are chosen by centroid routing — the cheap proxy
// for the sample phase that needs no index scan at admission time — and
// within each of the top DeepClusters shards the first SampleNProbe probe
// cells (the head of the DeepNProbe sequence, which every deep nProbe
// shares) form the key set. Two queries with overlapping keys will share
// cell streams when executed as a group.
func (st *Store) PredictCells(q []float32, p Params) []uint64 {
	p = p.withDefaults()
	if len(st.Shards) == 0 {
		return nil
	}
	order := make([]rankedShard, 0, len(st.Shards))
	for s, sh := range st.Shards {
		order = append(order, rankedShard{vec.L2Squared(q, sh.Centroid), int32(s)})
	}
	sortRanked(order)
	deep := p.DeepClusters
	if deep > len(order) {
		deep = len(order)
	}
	keys := make([]uint64, 0, deep*p.SampleNProbe)
	var cells []int32
	for _, r := range order[:deep] {
		cells = st.Shards[r.shard].Index.PredictCells(cells, q, p.SampleNProbe)
		for _, c := range cells {
			keys = append(keys, uint64(r.shard)<<32|uint64(uint32(c)))
		}
	}
	return keys
}
