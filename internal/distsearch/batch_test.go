package distsearch

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

func TestSearchBatchMatchesSequential(t *testing.T) {
	_, _, co, c := cluster(t, 1200, 6)
	qs := c.Queries(24, 51)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()
	batch, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("batch returned %d results", len(batch.Results))
	}
	for i, q := range queries {
		single, err := co.Search(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Neighbors) != len(batch.Results[i]) {
			t.Fatalf("query %d: batch %d results vs single %d", i, len(batch.Results[i]), len(single.Neighbors))
		}
		for j := range single.Neighbors {
			if single.Neighbors[j].ID != batch.Results[i][j].ID {
				t.Fatalf("query %d pos %d: batch %d != single %d", i, j,
					batch.Results[i][j].ID, single.Neighbors[j].ID)
			}
		}
	}
}

func TestSearchBatchDeepLoads(t *testing.T) {
	_, _, co, c := cluster(t, 1000, 5)
	qs := c.Queries(20, 53)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()
	batch, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.DeepLoads) != 5 {
		t.Fatalf("DeepLoads len %d", len(batch.DeepLoads))
	}
	total := 0
	for _, l := range batch.DeepLoads {
		total += l
	}
	if total != 20*p.DeepClusters {
		t.Fatalf("total deep searches %d, want %d", total, 20*p.DeepClusters)
	}
	if batch.SampleLatency <= 0 || batch.DeepLatency <= 0 {
		t.Fatal("phase latencies not populated")
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	_, _, co, _ := cluster(t, 400, 2)
	res, err := co.SearchBatch(nil, hermes.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 || len(res.DeepLoads) != 2 {
		t.Fatalf("empty batch result wrong: %+v", res)
	}
}

func TestSearchBatchDimValidation(t *testing.T) {
	_, _, co, _ := cluster(t, 400, 2)
	if _, err := co.SearchBatch([][]float32{{1, 2}}, hermes.DefaultParams()); err == nil {
		t.Fatal("wrong-dim batch query should error")
	}
}

func TestSearchBatchWithPruning(t *testing.T) {
	_, _, co, c := cluster(t, 1500, 6)
	qs := c.Queries(30, 57)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	base := hermes.DefaultParams()
	pruned := base
	pruned.PruneEps = 0.25
	rb, err := co.SearchBatch(queries, base)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := co.SearchBatch(queries, pruned)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(loads []int) int {
		t := 0
		for _, l := range loads {
			t += l
		}
		return t
	}
	if sum(rp.DeepLoads) >= sum(rb.DeepLoads) {
		t.Fatalf("pruned batch deep searches %d should be < unpruned %d",
			sum(rp.DeepLoads), sum(rb.DeepLoads))
	}
}

// TestBatchResponseShapeChecked: a batch answer must carry exactly one result
// and one cost entry per query sent. A node that answers either phase with a
// result too many or too few, or a surplus cost entry, fails the batch with
// a clean error counted in hermes_distsearch_errors_total: no panic on the
// extra result, no silently dropped query, no cost entry that reaches the
// batch total but no query. The connection stays in step and is kept.
func TestBatchResponseShapeChecked(t *testing.T) {
	const dim = 4
	queries := [][]float32{make([]float32, dim), make([]float32, dim)}
	for _, tc := range []struct {
		name           string
		op             Op
		results, costs int // added to the batch length in tc.op's answer
	}{
		{"sample/extra_result", OpSampleBatch, 1, 0},
		{"sample/missing_result", OpSampleBatch, -1, 0},
		{"sample/surplus_cost", OpSampleBatch, 0, 1},
		{"deep/extra_result", OpDeepBatch, 1, 0},
		{"deep/missing_result", OpDeepBatch, -1, 0},
		{"deep/surplus_cost", OpDeepBatch, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, stop := fakeNode(t, speaks(wireVersion), func(_ int, req *Request) *Response {
				if req.Op == OpInfo {
					return infoResponse(dim)
				}
				results, costs := len(req.Queries), len(req.Queries)
				if req.Op == tc.op {
					results, costs = results+tc.results, costs+tc.costs
				}
				resp := &Response{Batch: make([][]vec.Neighbor, results), Costs: make([]telemetry.QueryCost, costs)}
				for i := range resp.Batch {
					resp.Batch[i] = []vec.Neighbor{{ID: int64(i), Score: 1}}
				}
				return resp
			})
			defer stop()
			co, err := DialOpts([]string{addr}, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = co.Close() }()
			conn := co.nodes[0].conn

			res, err := co.SearchBatch(queries, hermes.DefaultParams())
			if err == nil || res != nil {
				t.Fatalf("malformed %s answer served: %+v, err %v", opName(tc.op), res, err)
			}
			if !strings.Contains(err.Error(), "answered a batch of 2 queries") {
				t.Errorf("error %q does not describe the batch shape", err)
			}
			if got := co.m.errors.Value(); got != 1 {
				t.Errorf("errors = %d, want 1", got)
			}
			if got, deep := co.m.opCounter(OpDeepBatch).Value(), tc.op == OpDeepBatch; (got == 1) != deep {
				t.Errorf("deep-batch exchanges = %d; the malformed %s answer must fail its own phase", got, opName(tc.op))
			}
			if _, err := co.nodes[0].roundTrip(&Request{Op: OpInfo}); err != nil || co.nodes[0].conn != conn {
				t.Errorf("connection not kept after a well-framed malformed answer: %v", err)
			}
		})
	}
}
