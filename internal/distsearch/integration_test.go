package distsearch

import (
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/hermes"
	"repro/internal/loadgen"
	"repro/internal/vec"
)

// TestServingStackIntegration stacks the full serving path: an open-loop
// Poisson load (loadgen) feeds single queries into a batching front-end
// (batcher) that flushes batches through the distributed coordinator's
// batched wire protocol to real TCP shard nodes.
func TestServingStackIntegration(t *testing.T) {
	_, _, co, c := cluster(t, 1500, 6)
	p := hermes.DefaultParams()

	b, err := batcher.New(batcher.Config{
		MaxBatch: 16,
		MaxWait:  2 * time.Millisecond,
		Process: func(queries [][]float32) ([][]vec.Neighbor, error) {
			res, err := co.SearchBatch(queries, p)
			if err != nil {
				return nil, err
			}
			return res.Results, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	qs := c.Queries(200, 71)
	rep, err := loadgen.Run(loadgen.Config{
		TargetQPS:   2000,
		Queries:     200,
		Concurrency: 32,
		Seed:        73,
	}, func(i int) error {
		res, err := b.Search(qs.Vectors.Row(i % qs.Vectors.Len()))
		if err != nil {
			return err
		}
		if len(res) == 0 {
			t.Errorf("query %d returned nothing", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 200 || rep.Failed != 0 {
		t.Fatalf("completed %d failed %d", rep.Completed, rep.Failed)
	}
	st := b.Stats()
	if st.QueriesServed != 200 {
		t.Fatalf("batcher served %d", st.QueriesServed)
	}
	// The batcher flushes on idle, so batches form only while one is in
	// flight; at this arrival rate that is often enough to aggregate.
	if st.MeanBatch <= 1 || st.Flushes >= st.QueriesServed {
		t.Fatalf("%d queries in %d flushes (mean batch %.2f); front-end failed to batch while busy",
			st.QueriesServed, st.Flushes, st.MeanBatch)
	}
	t.Logf("served 200 queries in %d flushes (mean batch %.1f), sojourn p95 %v",
		st.Flushes, st.MeanBatch, rep.Sojourn.P95)
}
