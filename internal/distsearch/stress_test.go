package distsearch

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hermes"
)

// TestConcurrentSearchDuringNodeDrain hammers one coordinator with
// concurrent Search calls while a shard node is closed mid-flight. In
// lenient mode every query must still complete without error (recall may
// drop — the drained shard's documents vanish — but the service stays up).
// Run under -race this also exercises the shared node connections (calls
// failed by a reader on another caller's behalf) and the Node close path.
func TestConcurrentSearchDuringNodeDrain(t *testing.T) {
	_, lc, co, c := cluster(t, 1200, 6)
	co.SetLenient(true) // set before spawning workers; lenient has no lock
	p := hermes.DefaultParams()
	qs := c.Queries(64, 99)

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				q := qs.Vectors.Row((w*perWorker + i) % qs.Vectors.Len())
				if _, err := co.Search(q, p); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	close(start)

	// Drain one node while searches are in flight.
	time.Sleep(2 * time.Millisecond)
	if err := lc.nodes[len(lc.nodes)-1].Close(); err != nil {
		t.Fatalf("drain node: %v", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("lenient search failed during drain: %v", err)
	}
}

// TestConcurrentSearchAndBatch mixes single-query and batched searches from
// many goroutines against one coordinator, so several exchanges are in flight
// on each node connection at once and a reader often completes another
// caller's call. Every answer must equal Store.Search's (single) or
// Store.SearchGrouped's (batch) on the same indexes: a response paired with
// the wrong call shows as a wrong answer, with or without -race.
func TestConcurrentSearchAndBatch(t *testing.T) {
	st, _, co, c := cluster(t, 1000, 4)
	p := hermes.DefaultParams()
	qs := c.Queries(32, 17)

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := qs.Vectors.Row((w*20 + i) % qs.Vectors.Len())
				if w%2 == 0 {
					res, err := co.Search(q, p)
					if err != nil {
						t.Errorf("search: %v", err)
						return
					}
					if want, _ := st.Search(q, p); !reflect.DeepEqual(res.Neighbors, want) {
						t.Errorf("worker %d query %d: coordinator %v != store %v", w, i, res.Neighbors, want)
						return
					}
					continue
				}
				batch := [][]float32{q, qs.Vectors.Row((w*20 + i + 1) % qs.Vectors.Len())}
				res, err := co.SearchBatch(batch, p)
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				want, _ := st.SearchGrouped(batch, p)
				for j := range batch {
					if !reflect.DeepEqual(res.Results[j], want[j].Neighbors) {
						t.Errorf("worker %d batch %d query %d: coordinator %v != store %v", w, i, j, res.Results[j], want[j].Neighbors)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
