package main

import (
	"fmt"
	"time"

	"repro/internal/hermes"
)

// workload is one set of inputs and one way of loading the system. Why each
// exists is recorded in README.md and BENCHMARK.json.
type workload struct {
	name                        string
	chunks, dim, topics, shards int
	params                      hermes.Params
	// clients is the number of closed-loop readers on Coordinator.Search;
	// 0 means the workload is open loop through the batcher.
	clients int
	// steps are the open loop's fixed arrival rates, ascending. Latency is
	// named at steps[0]; the others only decide max_rate_qps.
	steps []rateStep
	// writeRate, when positive, runs a writer beside the reader, paced at
	// this many Add/Remove operations per second.
	writeRate float64
	// recallFloor is the lowest recall@5 the correctness gate accepts.
	recallFloor float64
}

// rateStep is one fixed rate of the open loop, in queries per second, and
// the share of the timed window spent at it.
type rateStep struct {
	qps, share float64
}

// Sizes are the issue's, shrunk so that three set-ups and the timed window
// of all 92 driver runs fit the 3420 s cap. hermes.Build trains one IVF
// quantizer per shard on every vector of the shard, which is almost all of
// set-up; scan_bound trades rows for dimensions (12k x 256 instead of
// 40k x 128) because that keeps ~0.8 ms of scan per query for a third of
// the build time.
var workloads = []workload{
	{
		name: "wire_bound", chunks: 8000, dim: 32, topics: 16, shards: 10,
		params:  hermes.Params{K: 5, SampleNProbe: 4, DeepNProbe: 16, DeepClusters: 3},
		clients: 2, recallFloor: 0.80,
	},
	{
		name: "scan_bound", chunks: 12000, dim: 256, topics: 16, shards: 4,
		params:  hermes.DefaultParams(),
		clients: 1, recallFloor: 0.90,
	},
	{
		name: "batched_open", chunks: 16000, dim: 64, topics: 4, shards: 4,
		params: hermes.DefaultParams(),
		// Saturation moves between ~2000 and ~5000 qps with the fast and
		// slow phases of a 2-CPU container's host, and no rate between
		// those passes or fails every time: a 2000 qps step flipped in a
		// slow phase, 4000 and even a short 5000 qps step passed in a fast
		// one. So the ladder stops below all of it: 1500 qps holds the limit
		// with p99 7-12 ms in either phase, and max_rate_qps says whether it
		// still does.
		steps: []rateStep{{1000, 0.5}, {1500, 0.5}}, recallFloor: 0.90,
	},
	{
		name: "read_write_mix", chunks: 16000, dim: 64, topics: 16, shards: 4,
		params:  hermes.DefaultParams(),
		clients: 1, writeRate: 400, recallFloor: 0.90,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to a corpus the smoke test builds in well under
// a second. The numbers it yields mean nothing; the code paths are the same.
func (w workload) quick() workload {
	w.chunks = 1500
	w.dim = min(w.dim, 32)
	w.shards = min(w.shards, 4)
	w.recallFloor = 0.5
	steps := append([]rateStep(nil), w.steps...)
	for i := range steps {
		steps[i].qps = 200 * float64(i+1)
	}
	w.steps = steps
	return w
}

// Batcher settings of the open loop, from the issue.
const (
	batchMax      = 32
	batchWait     = 2 * time.Millisecond
	groupSlack    = time.Millisecond
	latencyLimit  = 25 * time.Millisecond // p99 a fixed rate must hold to count for max_rate_qps
	maxInFlight   = 4096
	warmupQueries = 500
	gateQueries   = 200
	recallQueries = 500
	windowSlices  = 5
)
