package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/distsearch"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/vec"
)

// kernelBlock is the number of codes one kernel call scores.
const kernelBlock = 4096

// runTraced climbs the ladder on the workload's own store: each layer's
// public function is called directly on the same queries, one client, with
// a span around every call, and the coordinator is reached through counting
// proxies. It yields the per-layer metrics and trace.json.
func runTraced(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{Workload: w.name, Trace: true, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]metric{}}
	sys, err := setUp(w, cfg.seed, cfg.indexDir())
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ph := sys.phases
	res.Metrics["build_s"] = single(ph.build, "s")
	res.Metrics["index_write_s"] = single(ph.write, "s")
	res.Metrics["index_load_s"] = single(ph.load, "s")
	res.Metrics["index_disk_mb"] = single(ph.diskMB, "MB")
	res.Metrics["launch_s"] = single(ph.launch, "s")

	n := 2000
	if cfg.quick {
		n = 200
	}
	rec := newRecorder()
	t := &tracer{cfg: cfg, sys: sys, rec: rec, res: res, n: n}
	if err := t.kernel(); err != nil {
		return nil, err
	}
	t.listScan()
	t.storeSearch()
	if err := t.coordinator(); err != nil {
		return nil, err
	}
	if err := t.batcher(); err != nil {
		return nil, err
	}
	res.Metrics["scan_share"] = single(res.Metrics["store_search_us"].Value/res.Metrics["coord_search_us"].Value, "ratio")
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, rec.writeJSON(filepath.Join(cfg.dir, "trace-"+w.name+".json"))
}

// tracer holds what the rungs share.
type tracer struct {
	cfg               runConfig
	sys               *system
	rec               *recorder
	res               *runResult
	n                 int // queries per rung
	attempted, failed int64
}

func (t *tracer) set(name string, v float64, unit string) { t.res.Metrics[name] = single(v, unit) }

// kernel times the quantizer's batch kernel alone: a block of codes at the
// workload's dimension and codec, scored once per query.
func (t *tracer) kernel() error {
	w := t.sys.w
	train := vec.NewMatrix(0, w.dim)
	for i := 0; i < min(kernelBlock, t.sys.corpus.Vectors.Len()); i++ {
		train.AppendRow(t.sys.corpus.Vectors.Row(i))
	}
	sq := quant.NewSQ(w.dim, 8)
	if err := sq.Train(train); err != nil {
		return err
	}
	codes := make([]byte, kernelBlock*sq.CodeSize())
	for i := 0; i < kernelBlock; i++ {
		sq.Encode(train.Row(i%train.Len()), codes[i*sq.CodeSize():(i+1)*sq.CodeSize()])
	}
	kern := quant.NewBatchDistancer(sq)
	out := make([]float32, kernelBlock)
	phase := t.rec.begin("kernel_phase", -1, -1)
	for i := 0; i < t.n; i++ {
		id := t.rec.begin("kernel_block", phase, i)
		kern.BindQuery(t.sys.query(i))
		kern.DistanceBatch(codes, kernelBlock, out)
		t.rec.end(id)
	}
	t.rec.end(phase)
	t.set("kernel_ns_per_code", meanUS(t.rec.snapshot(), "kernel_block", span.duration)*1e3/kernelBlock, "ns")
	return nil
}

// listScan times one shard's IVF search at the deep nProbe: the largest
// shard, because that is the one a deep search waits for.
func (t *tracer) listScan() {
	w := t.sys.w
	big, sizes := 0, t.sys.store.Sizes()
	for i, size := range sizes {
		if size > sizes[big] {
			big = i
		}
	}
	searcher := t.sys.store.Shards[big].Index.NewSearcher()
	var dst []vec.Neighbor
	var codes int
	phase := t.rec.begin("list_scan_phase", -1, -1)
	for i := 0; i < t.n; i++ {
		id := t.rec.begin("list_scan", phase, i)
		got, st := searcher.Search(dst[:0], t.sys.query(i), w.params.K, w.params.DeepNProbe)
		t.rec.end(id)
		dst = got
		codes += st.VectorsScanned
	}
	t.rec.end(phase)
	us := meanUS(t.rec.snapshot(), "list_scan", span.duration)
	t.set("list_scan_us", us, "us")
	t.set("ivf_ns_per_code", us*1e3*float64(t.n)/float64(max(codes, 1)), "ns")
}

// storeSearch times the in-process hierarchical search, and replays the
// queries as grouped batches to count the cell scans grouping shares.
func (t *tracer) storeSearch() {
	w := t.sys.w
	var sampled, deep int
	phase := t.rec.begin("store_search_phase", -1, -1)
	for i := 0; i < t.n; i++ {
		id := t.rec.begin("store_search", phase, i)
		_, st := t.sys.store.Search(t.sys.query(i), w.params)
		t.rec.end(id)
		sampled += st.SampleScanned
		deep += st.DeepScanned
	}
	t.rec.end(phase)
	t.set("store_search_us", meanUS(t.rec.snapshot(), "store_search", span.duration), "us")
	t.set("codes_scanned_per_query", float64(sampled+deep)/float64(t.n), "count")
	t.set("sample_share", float64(sampled)/float64(max(sampled+deep, 1)), "ratio")

	var shared, streamed int
	for lo := 0; lo < t.n; lo += batchMax {
		batch := make([][]float32, 0, batchMax)
		for i := lo; i < min(lo+batchMax, t.n); i++ {
			batch = append(batch, t.sys.query(i))
		}
		_, gs := t.sys.store.SearchGrouped(batch, w.params)
		shared += gs.SharedCellScans()
		streamed += gs.Sample.CellsScanned + gs.Deep.CellsScanned
	}
	t.set("shared_scan_rate", float64(shared)/float64(max(shared+streamed, 1)), "ratio")
}

// coordinator times Coordinator.Search over loopback TCP. The same queries
// run first on the direct connection with no spans, then through the
// counting proxies with spans, so the difference is what tracing costs.
func (t *tracer) coordinator() error {
	w, sys := t.sys.w, t.sys
	plain := make([]sample, 0, t.n)
	for i := 0; i < t.n; i++ {
		t0 := time.Now()
		_, err := sys.co.Search(sys.query(i), w.params)
		t.count(err)
		plain = append(plain, sample{at: time.Duration(i), lat: time.Since(t0)})
	}

	var proxies []*proxy
	defer func() {
		for _, p := range proxies {
			p.close()
		}
	}()
	var addrs []string
	for _, addr := range sys.cluster.Addrs() {
		p, err := newProxy(addr, t.rec)
		if err != nil {
			return err
		}
		proxies = append(proxies, p)
		addrs = append(addrs, p.addr())
	}
	co, err := distsearch.Dial(addrs, 5*time.Second)
	if err != nil {
		return err
	}
	defer co.Close()
	for i := 0; i < 100; i++ {
		_, err := co.Search(sys.query(i), w.params)
		t.count(err)
	}
	counters := func() (up, down, exchanges int64) {
		for _, p := range proxies {
			p.flush()
			up += p.up.Load()
			down += p.down.Load()
			exchanges += p.exchanges.Load()
		}
		return
	}
	up0, down0, exch0 := counters()
	mark := len(t.rec.snapshot())

	traced := make([]sample, 0, t.n)
	deepNodes := make([][]int, t.n)
	phase := t.rec.begin("coord_phase", -1, -1)
	for i := 0; i < t.n; i++ {
		id := t.rec.begin("coord_search", phase, i)
		t.rec.setCurrent(id, i)
		t0 := time.Now()
		r, err := co.Search(sys.query(i), w.params)
		lat := time.Since(t0)
		t.rec.clearCurrent()
		t.rec.end(id)
		t.count(err)
		if err == nil {
			deepNodes[i] = r.DeepNodes
		}
		traced = append(traced, sample{at: time.Duration(i), lat: lat})
	}
	t.rec.end(phase)
	up1, down1, exch1 := counters()

	spans := t.rec.snapshot()[mark:]
	self := selfTimes(spans)
	exchanges := float64(exch1 - exch0)
	t.set("coord_search_us", meanUS(spans, "coord_search", span.duration), "us")
	t.set("coord_self_us", meanUS(spans, "coord_search", func(s span) int64 { return self[s.ID] }), "us")
	t.set("node_exchange_us", meanUS(spans, "node_exchange", span.duration), "us")
	t.set("exchanges_per_query", exchanges/float64(t.n), "count")
	t.set("wire_bytes_per_query", float64(up1+down1-up0-down0)/float64(t.n), "B")
	t.set("unaccounted_frac", float64(self[phase])/float64(spans[0].End-spans[0].Start), "ratio")

	// The same searches the nodes ran, straight on the shard indexes: what
	// an exchange costs beyond the scan it carries.
	var direct time.Duration
	for i := 0; i < t.n; i++ {
		t0 := time.Now()
		for _, sh := range sys.store.Shards {
			sh.Index.Search(sys.query(i), 1, w.params.SampleNProbe)
		}
		for _, shard := range deepNodes[i] {
			sys.store.Shards[shard].Index.Search(sys.query(i), w.params.K, w.params.DeepNProbe)
		}
		direct += time.Since(t0)
	}
	exchangeUS := t.res.Metrics["node_exchange_us"].Value
	t.set("node_overhead_us", exchangeUS-float64(direct.Microseconds())/exchanges, "us")

	rtt, err := loopbackRTT(int(float64(up1-up0)/exchanges), int(float64(down1-down0)/exchanges), t.n)
	if err != nil {
		return err
	}
	t.set("loopback_rtt_us", rtt, "us")

	// Tracing overhead per slice of the query sequence, so that it comes
	// with its spread.
	var overhead []float64
	span := time.Duration(t.n)
	a, b := bySlice(plain, span, windowSlices), bySlice(traced, span, windowSlices)
	for i := range a {
		if base := metrics.Summarize(a[i]).P50; base > 0 {
			overhead = append(overhead, float64(metrics.Summarize(b[i]).P50)/float64(base)-1)
		}
	}
	t.res.Metrics["trace_overhead_frac"] = overSlices(overhead, "ratio")
	return nil
}

func (t *tracer) count(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.res.Problems) < 10 {
			t.res.Problems = append(t.res.Problems, err.Error())
		}
	}
}

// batcher drives the grouping batcher with the open-loop generator for two
// seconds at the workload's first fixed rate (500 qps where it has none).
// Every Batcher.Search gets a span and, as its child, the Process call that
// served it, so the span's self time is what the query waited in the queue.
func (t *tracer) batcher() error {
	w, sys := t.sys.w, t.sys
	rate := 500.0
	if len(w.steps) > 0 {
		rate = w.steps[0].qps
	}
	phase := t.rec.begin("batcher_phase", -1, -1)
	var inFlight sync.Map // &query[0] -> span ID of its Batcher.Search
	bat, err := newBatcher(sys, func(qs [][]float32) ([][]vec.Neighbor, error) {
		t0 := t.rec.now()
		out, err := sys.co.SearchBatch(qs, w.params)
		t1 := t.rec.now()
		for _, q := range qs {
			if id, ok := inFlight.Load(&q[0]); ok {
				t.rec.add("process", id.(int), -1, t0, t1)
			}
		}
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	})
	if err != nil {
		return err
	}
	// Arrivals use distinct pool queries, so a query's first element
	// identifies it while it is in flight.
	dur := 2 * time.Second
	if t.cfg.quick {
		dur = time.Second
	}
	step := openLoop(func(i int) error {
		q := sys.query(i)
		id := t.rec.begin("batcher_search", phase, i)
		inFlight.Store(&q[0], id)
		ns, err := bat.Search(q)
		t.rec.end(id)
		inFlight.Delete(&q[0])
		if err == nil && len(ns) == 0 {
			err = fmt.Errorf("empty answer")
		}
		return err
	}, rate, dur, rand.New(rand.NewSource(t.cfg.seed+2)))
	bat.Close()
	t.rec.end(phase)
	t.attempted += step.sent
	t.failed += step.failed

	spans := t.rec.snapshot()
	self := selfTimes(spans)
	t.set("queue_wait_ms", meanUS(spans, "batcher_search", func(s span) int64 { return self[s.ID] })/1e3, "ms")
	st := bat.Stats()
	t.set("batch_size_mean", st.MeanBatch, "count")
	t.set("holdbacks", float64(st.Holdbacks), "count")
	t.set("generator_lag_ms", ms(metrics.Summarize(step.lag).P99), "ms")
	return nil
}
