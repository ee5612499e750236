package hermes

import (
	"time"

	"repro/internal/evlog"
	"repro/internal/ivf"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// This file is the store's one hierarchical-search executor. Every store
// search — a single query, a grouped batch, the ablation routes — runs the
// paper's online algorithm shard-major over a batch: one ivf.Searcher batch
// per shard samples every query, each query ranks the shards and chooses its
// deep set, one batch per shard deep-searches the queries that chose it, and
// each query folds its deep results into its own top-k. A single query is a
// batch of one.

// ranking selects how the executor orders shards for the deep phase. Only
// the sampled ranking runs the sample phase and honours PruneEps (the cut
// compares sampled-document distances).
type ranking uint8

const (
	// bySample ranks shards by the best sampled document (the paper's
	// algorithm).
	bySample ranking = iota
	// byCentroid ranks shards by centroid distance (SearchCentroid).
	byCentroid
	// byIndex keeps shard order (SearchAll, SearchFirstN).
	byIndex
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

// appendShards appends every shard to order, scored by the distance from q
// to the shard's centroid when centroid is set and unscored otherwise, so
// that sortRanked's tie rule keeps index order.
func (st *Store) appendShards(order []rankedShard, q []float32, centroid bool) []rankedShard {
	for s, sh := range st.Shards {
		var d float32
		if centroid {
			d = vec.L2Squared(q, sh.Centroid)
		}
		order = append(order, rankedShard{d, int32(s)})
	}
	return order
}

// scratch is the reusable state of one executor call: one warmed
// ivf.Searcher per shard, each query's shard ranking and top-k, each shard's
// deep-phase bucket of query indices, and the gather and drain buffers.
// Recycled through Store.pool; one scratch serves one call at a time.
type scratch struct {
	searchers []*ivf.Searcher // per shard, created on first use
	orders    [][]rankedShard // per query
	tks       []*vec.TopK     // per query
	buckets   [][]int32       // per shard: the queries that deep-search it
	qrows     [][]float32     // one shard's deep batch
	drain     []vec.Neighbor
}

// getScratch draws a scratch from the pool and readies it for n queries
// with top-k size k, keeping grown backing arrays across calls.
func (st *Store) getScratch(n, k int) *scratch {
	sc, ok := st.pool.Get().(*scratch)
	if !ok || len(sc.searchers) != len(st.Shards) {
		sc = &scratch{
			searchers: make([]*ivf.Searcher, len(st.Shards)),
			buckets:   make([][]int32, len(st.Shards)),
		}
	}
	if len(sc.orders) < n { // growth stays off the hot path's straight line
		for len(sc.orders) < n {
			sc.orders = append(sc.orders, make([]rankedShard, 0, len(st.Shards)))
			sc.tks = append(sc.tks, vec.NewTopK(k))
		}
	}
	for i := 0; i < n; i++ {
		sc.orders[i] = sc.orders[i][:0]
		sc.tks[i].Reset(k)
	}
	for s := range sc.buckets {
		sc.buckets[s] = sc.buckets[s][:0]
	}
	//lint:ignore poolescape typed pool accessor: the executor pairs every getScratch with a deferred pool.Put, which keeps the Get/Put bracket one level up
	return sc
}

// BatchGroupStats aggregates the shared-scan accounting of one batch, per
// phase. SharedCellScans is the number of per-cell code streams the grouping
// avoided versus per-query execution.
type BatchGroupStats struct {
	Sample ivf.GroupStats
	Deep   ivf.GroupStats
}

// SharedCellScans totals the cell streams saved across both phases.
func (s BatchGroupStats) SharedCellScans() int {
	return s.Sample.SharedCellScans + s.Deep.SharedCellScans
}

// search is the executor. It answers qs into out (len(qs) zeroed entries):
// neighbors, SearchStats and the cost ledger per query, plus the batch's
// shared-scan accounting. by selects the route; a non-nil tr receives one
// span per phase for the whole batch and arms the phase timers whose scan
// time the ledger attributes. The untraced path reads the clock only for
// armed telemetry.
//
//hermes:hotpath
func (st *Store) search(qs [][]float32, p Params, by ranking, tr *telemetry.Trace, out []BatchResult) BatchGroupStats {
	p = p.WithDefaults()
	var gs BatchGroupStats
	n := len(qs)
	if n == 0 {
		return gs
	}
	if by != bySample {
		p.PruneEps = 0
	}
	st.met.searches.Add(int64(n))
	if n > 1 {
		st.met.groupedQueries.Add(int64(n))
	}
	clocked := st.met.searchSeconds != nil || st.rec != nil
	var start time.Time
	if clocked {
		start = now()
	}
	sc := st.getScratch(n, p.K)
	defer st.pool.Put(sc)
	var ph ivf.PhaseNanos
	var timed *ivf.PhaseNanos
	var mark time.Time
	if tr != nil {
		timed, mark = &ph, now()
	}

	// Phase 1 — document sampling: one batch per shard retrieves each
	// query's best document there, which scores the shard for that query.
	if by == bySample {
		for s := range st.Shards {
			g := st.scan(sc, s, qs, 1, p.SampleNProbe, timed, &gs.Sample)
			for qi := range qs {
				out[qi].Stats.SampledShards++
				out[qi].Stats.SampleScanned += charge(&out[qi].Cost, g, qi)
				if sc.drain = g.AppendResults(qi, sc.drain[:0]); len(sc.drain) > 0 {
					sc.orders[qi] = append(sc.orders[qi], rankedShard{sc.drain[0].Score, int32(s)})
				}
			}
		}
	} else {
		for qi, q := range qs {
			sc.orders[qi] = st.appendShards(sc.orders[qi], q, by == byCentroid)
		}
	}
	mark = span(tr, "sample", mark)

	// Rank: each query chooses its deep shards and joins their buckets.
	for qi := range qs {
		out[qi].Stats.DeepShards = sc.rank(qi, p)
	}
	mark = span(tr, "rank", mark)

	// Phase 2 — deep search: one batch per shard over the queries that chose
	// it. Results fold into each query's top-k as its shards finish; the
	// top-k keeps the k best by (score, id), a total order, so the answer is
	// the one a fold in ranked order gives.
	for s, bucket := range sc.buckets {
		if len(bucket) == 0 {
			continue
		}
		g := st.scan(sc, s, sc.gather(qs, bucket), p.K, p.DeepNProbe, timed, &gs.Deep)
		for bi, qi := range bucket {
			out[qi].Stats.DeepScanned += charge(&out[qi].Cost, g, bi)
			sc.drain = g.AppendResults(bi, sc.drain[:0])
			for _, nb := range sc.drain {
				sc.tks[qi].Push(nb.ID, nb.Score)
			}
		}
	}
	span(tr, "deep", mark)

	sample, deep := 0, 0
	for qi := range qs {
		//lint:ignore hotpathalloc the caller-visible result slice, one per query
		out[qi].Neighbors = sc.tks[qi].Results()
		sample += out[qi].Stats.SampleScanned
		deep += out[qi].Stats.DeepScanned
	}
	// Attribute the measured scan time across the batch in proportion to
	// attributed codes, summing exactly to the measured total. Untraced
	// ledgers carry zero scan time.
	if ph.Scan > 0 {
		weights := make([]int64, n)
		for qi := range qs {
			weights[qi] = out[qi].Cost.Codes()
		}
		for qi, share := range telemetry.AttributeTotal(ph.Scan, weights) {
			out[qi].Cost.ScanNanos = share
		}
	}
	st.met.sampleScanned.Add(int64(sample))
	st.met.deepScanned.Add(int64(deep))
	st.met.groupSharedScans.Add(int64(gs.SharedCellScans()))
	if clocked {
		st.observe(out, tr, start, now().Sub(start))
	}
	return gs
}

// rank sorts query qi's shards and takes the top DeepClusters, cut by
// PruneEps once a shard's score exceeds (1+PruneEps) of the best one. It
// adds qi to each chosen shard's bucket and returns the chosen shards, best
// first, as the query's DeepShards (nil when it has none).
func (sc *scratch) rank(qi int, p Params) []int {
	order := sc.orders[qi]
	sortRanked(order)
	deep := min(p.DeepClusters, len(order))
	for i := 1; i < deep; i++ {
		if p.PruneEps > 0 && float64(order[i].d) > (1+p.PruneEps)*float64(order[0].d) {
			deep = i
			break
		}
	}
	var ds []int
	if deep > 0 {
		ds = make([]int, deep)
	}
	for i, r := range order[:deep] {
		ds[i] = int(r.shard)
		sc.buckets[r.shard] = append(sc.buckets[r.shard], int32(qi))
	}
	return ds
}

// gather returns the queries of bucket as one batch.
func (sc *scratch) gather(qs [][]float32, bucket []int32) [][]float32 {
	if cap(sc.qrows) < len(bucket) {
		sc.qrows = make([][]float32, len(bucket))
	}
	rows := sc.qrows[:len(bucket)]
	for i, qi := range bucket {
		rows[i] = qs[qi]
	}
	return rows
}

// scan runs the batch qs on shard s through the scratch's Searcher, adds its
// traffic to gs, and times it against the shard's scan histogram and the
// slow-scan detector when either is armed.
//
//hermes:hotpath
func (st *Store) scan(sc *scratch, s int, qs [][]float32, k, nProbe int, ph *ivf.PhaseNanos, gs *ivf.GroupStats) *ivf.Searcher {
	g := sc.searchers[s]
	if g == nil {
		g = st.Shards[s].Index.NewSearcher()
		sc.searchers[s] = g
	}
	h := st.met.scanHist(s)
	slow := st.ev != nil && st.slowScan > 0
	var t0 time.Time
	if h != nil || slow {
		t0 = now()
	}
	stats := g.SearchGroup(qs, k, nProbe, ph)
	if h != nil || slow {
		d := now().Sub(t0)
		h.ObserveDuration(d)
		if slow && d > st.slowScan {
			// Gated on the threshold crossing: the variadic field slice
			// only materializes for scans already past slowScan.
			st.ev.Warn("store.slow_scan",
				evlog.Int("shard", int64(s)), evlog.Dur("dur", d))
		}
	}
	gs.Queries += stats.Queries
	gs.CellsScanned += stats.CellsScanned
	gs.SharedCellScans += stats.SharedCellScans
	gs.VectorsScanned += stats.VectorsScanned
	return g
}

// span lands the phase name, from mark to now, on tr and returns now; with
// a nil tr it reads no clock.
func span(tr *telemetry.Trace, name string, mark time.Time) time.Time {
	if tr == nil {
		return mark
	}
	t := now()
	tr.AddSpan(name, telemetry.NodeLocal, mark, t.Sub(mark))
	return t
}

// charge adds slot i of g's last batch to a query's ledger and returns the
// vectors the query scanned there.
func charge(c *telemetry.QueryCost, g *ivf.Searcher, i int) int {
	cs := g.CostStats(i)
	c.Cells += int64(cs.CellsProbed)
	c.SharedCells += int64(cs.SharedCells)
	c.CodesExclusive += cs.CodesExclusive
	c.CodesAmortized += cs.CodesAmortized
	return g.QueryStats(i).VectorsScanned
}

// observe records a finished call: every query observes the call's wall
// time d on the latency histogram, and the flight recorder gets one record
// per query. A traced call's records share its trace ID and spans.
func (st *Store) observe(out []BatchResult, tr *telemetry.Trace, start time.Time, d time.Duration) {
	var spans []telemetry.Span
	busy := d
	if tr != nil {
		spans = tr.Spans()
		_, busy = telemetry.SpanTotals(spans)
	}
	for _, r := range out {
		st.met.searchSeconds.ObserveDuration(d)
		if st.rec == nil {
			continue
		}
		qr := telemetry.QueryRecord{
			TraceID:   tr.ID(),
			Start:     start,
			Total:     d,
			Busy:      busy,
			DeepNodes: append([]int(nil), r.Stats.DeepShards...),
			Scanned:   int64(r.Stats.SampleScanned + r.Stats.DeepScanned),
			Spans:     spans,
		}
		if qr.TraceID == 0 {
			qr.TraceID = telemetry.NewTraceID()
		}
		st.rec.Record(qr)
	}
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
	p = p.WithDefaults()
	if len(st.Shards) == 0 {
		return nil
	}
	order := st.appendShards(make([]rankedShard, 0, len(st.Shards)), q, true)
	sortRanked(order)
	deep := min(p.DeepClusters, len(order))
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
