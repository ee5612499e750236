package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/batcher"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	// dir receives index files and trace.json.
	dir string
	// tamper is the smoke test's hook: it may corrupt the answers the
	// correctness gate sees.
	tamper func([]vec.Neighbor)
}

// runResult is what one run measured and whether its answers were right.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists what the correctness gate found; Notes are findings
	// that are not failures, such as why a fixed rate missed its limit.
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

// setupRepeats is how often the untraced run sets the system up; setup_s is
// the median, so one slow build does not decide it.
const setupRepeats = 3

func (cfg runConfig) indexDir() string { return filepath.Join(cfg.dir, "index-"+cfg.w.name) }

// runUntraced measures the end-to-end metrics with no recorder and no proxy
// in the path.
func runUntraced(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]metric{}}

	var sys *system
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		var err error
		if sys, err = setUp(w, cfg.seed, cfg.indexDir()); err != nil {
			return nil, err
		}
		setups = append(setups, sys.phases.total)
	}
	defer sys.close()
	res.Metrics["setup_s"] = overSlices(setups, "s")

	// Everything that needs the corpus happens here, so that heap_mb below
	// is the served system and not the benchmark's copy of the input.
	eval := newEvalSet(sys, cfg.recallQueries())
	wr := newWriter(sys, cfg.seed+1)
	sys.corpus = nil
	// Twice, with a pause: connections and files of the earlier set-ups are
	// freed by finalizers, which run after the first collection.
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.Metrics["heap_mb"] = single(float64(mem.HeapAlloc)/(1<<20), "MB")

	var g gate
	g.matchesStore(sys, cfg.tamper)
	res.Metrics["recall_at_5"] = single(g.recall(sys, eval), "ratio")

	window := time.Duration(cfg.seconds * float64(time.Second))
	var reads []sample
	var readFailed int64
	switch {
	case w.clients == 0:
		readFailed = cfg.openLoopWindow(sys, window, res)
	case w.writeRate > 0:
		done := make(chan struct{})
		go func() {
			defer close(done)
			wr.runPaced(time.Now(), window, w.writeRate, window/4)
		}()
		reads, readFailed = closedLoop(sys, w.clients, window)
		<-done
	default:
		reads, readFailed = closedLoop(sys, w.clients, window)
	}
	if w.clients > 0 {
		qps, p50, p99 := latencyMetrics(reads, window, windowSlices)
		res.Metrics["throughput_qps"], res.Metrics["query_p50_ms"], res.Metrics["query_p99_ms"] = qps, p50, p99
		// A closed loop runs at the highest rate its clients can sustain.
		res.Metrics["max_rate_qps"] = qps
		res.Attempted += int64(len(reads)) + readFailed
	}
	if w.writeRate == 0 {
		wr.probe(cfg.probeWrites(), window)
	}
	_, res.Metrics["write_p50_ms"], _ = latencyMetrics(wr.samples, window, windowSlices)
	res.Attempted += int64(len(wr.samples)) + wr.failed

	// Writes have stopped: the store may be read in-process again.
	g.ledger(wr)
	g.matchesStore(sys, cfg.tamper)

	res.Attempted += g.attempted
	res.Failed = g.failed + readFailed + wr.failed
	res.Problems = g.problems
	res.Correct = res.Failed == 0
	return res, nil
}

func (cfg runConfig) recallQueries() int {
	if cfg.quick {
		return gateQueries
	}
	return recallQueries
}

func (cfg runConfig) probeWrites() int {
	if cfg.quick {
		return 20
	}
	return 5000
}

// newBatcher puts the grouping batcher in front of the coordinator the way
// a serving front-end does; process runs each flushed batch.
func newBatcher(sys *system, process batcher.ProcessFunc) (*batcher.Batcher, error) {
	return batcher.New(batcher.Config{
		MaxBatch:   batchMax,
		MaxWait:    batchWait,
		GroupSlack: groupSlack,
		Predict:    func(q []float32) []uint64 { return sys.store.PredictCells(q, sys.w.params) },
		Process:    process,
	})
}

// openLoopWindow runs the workload's fixed rates one after another, each for
// its share of the window. Latency is named at the first; the higher ones
// only decide max_rate_qps. It returns the number of failed requests.
func (cfg runConfig) openLoopWindow(sys *system, window time.Duration, res *runResult) (failed int64) {
	w := cfg.w
	bat, err := newBatcher(sys, func(qs [][]float32) ([][]vec.Neighbor, error) {
		out, err := sys.co.SearchBatch(qs, w.params)
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	})
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
		return 1
	}
	defer bat.Close()
	search := func(i int) error {
		ns, err := bat.Search(sys.query(i))
		if err == nil && len(ns) == 0 {
			err = fmt.Errorf("empty answer")
		}
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	maxRate, holding := 0.0, true
	for i, st := range w.steps {
		rate, dur := st.qps, time.Duration(st.share*float64(window))
		step := openLoop(search, rate, dur, rng)
		res.Attempted += step.sent
		failed += step.failed
		ok, why := step.meets(latencyLimit)
		if holding && ok {
			maxRate = rate
		}
		holding = holding && ok
		if !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%.0f qps misses the limit: %s", rate, why))
		}
		qps, p50, p99 := latencyMetrics(step.samples, dur, windowSlices)
		if i == 0 {
			res.Metrics["throughput_qps"], res.Metrics["query_p50_ms"], res.Metrics["query_p99_ms"] = qps, p50, p99
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%.0f qps for %.1f s: p50 %.2f ms, p99 %.2f ms [%.2f - %.2f over slices], generator lag p99 %.2f ms",
			rate, dur.Seconds(), p50.Value, p99.Value, p99.Min, p99.Max, ms(metrics.Summarize(step.lag).P99)))
	}
	res.Metrics["max_rate_qps"] = single(maxRate, "1/s")
	return failed
}

// sortedNames lists a metric map's keys in a stable order for printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
