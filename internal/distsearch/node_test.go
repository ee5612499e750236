package distsearch

import (
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/telemetry"
)

// TestNodeHandleAllocs pins what one search request costs a warmed node in
// heap allocations, per op, untraced and traced. The budgets are the counts
// the node's handlers had when this test was written; a refactor of the
// search handler may lower them, never raise them. The batch rows carry 4
// queries, so each includes their 4 result slices.
func TestNodeHandleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts, inflating alloc counts")
	}
	c, err := corpus.Generate(corpus.Spec{NumChunks: 2000, Dim: 32, NumTopics: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: 2, QuantBits: 8, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(0, st.Shards[0].Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.SetTelemetry(telemetry.NewRegistry())
	qs := c.Queries(4, 9).Vectors
	batch := [][]float32{qs.Row(0), qs.Row(1), qs.Row(2), qs.Row(3)}
	cases := []struct {
		name    string
		req     Request
		budgets [2]float64 // untraced, traced
	}{
		{"sample", Request{Op: OpSample, Query: qs.Row(0), NProbe: 4}, [2]float64{3, 4}},
		{"deep", Request{Op: OpDeep, Query: qs.Row(0), K: 5, NProbe: 16}, [2]float64{3, 4}},
		{"deep_batch", Request{Op: OpDeepBatch, Queries: batch, K: 5, NProbe: 16}, [2]float64{7, 8}},
		{"deep_batch_grouped", Request{Op: OpDeepBatch, Queries: batch, K: 5, NProbe: 16, Grouped: true}, [2]float64{7, 10}},
	}
	for _, tc := range cases {
		for i, traced := range []bool{false, true} {
			name, req, budget := tc.name, tc.req, tc.budgets[i]
			if traced {
				name += "/traced"
				req.TraceID = 1
			}
			t.Run(name, func(t *testing.T) {
				at := time.Now()
				for i := 0; i < 3; i++ {
					if resp := n.handle(&req, at, at); resp.Err != "" {
						t.Fatal(resp.Err)
					}
				}
				allocs := testing.AllocsPerRun(50, func() { n.handle(&req, at, at) })
				if allocs > budget {
					t.Errorf("%s: %v allocations per request, budget %v", name, allocs, budget)
				}
			})
		}
	}
}
