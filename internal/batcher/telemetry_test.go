package batcher

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// TestBatcherTelemetry runs four flushes on a stepped clock: a held batch of
// one, two MaxBatch flushes of four beside it, and one query queued behind
// it that leaves when the held batch returns, 3ms of clock later. Only that
// query waited, so the queue-wait histogram sums to exactly 3ms.
func TestBatcherTelemetry(t *testing.T) {
	var clock atomic.Int64
	now = func() time.Time { return time.Unix(0, clock.Load()) }
	defer func() { now = time.Now }()

	reg := telemetry.NewRegistry()
	g := newBusyGate()
	b, err := New(Config{
		MaxBatch: 4,
		MaxWait:  time.Hour, // no MaxWait flushes
		Process: g.wrap(func(queries [][]float32) ([][]vec.Neighbor, error) {
			return make([][]vec.Neighbor, len(queries)), nil
		}),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	held := g.hold(t, b)
	done := make(chan error, 9)
	search := func() {
		_, err := b.Search([]float32{1})
		done <- err
	}
	for i := 0; i < 8; i++ {
		go search()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	go search()
	waitPending(t, b, 1)
	clock.Add(int64(3 * time.Millisecond))
	close(g.release)
	for _, ch := range []<-chan error{done, held} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap["hermes_batcher_batch_size:count"]; got != 4 {
		t.Errorf("batch-size observations = %v, want 4 flushes", got)
	}
	if got := snap["hermes_batcher_batch_size:sum"]; got != 10 {
		t.Errorf("batch-size sum = %v, want 10 queries", got)
	}
	if got := snap["hermes_batcher_queue_depth"]; got != 0 {
		t.Errorf("queue depth = %v after drain, want 0", got)
	}
	if got := snap["hermes_batcher_queue_wait_seconds:count"]; got != 10 {
		t.Errorf("queue-wait observations = %v, want one per query (10)", got)
	}
	if got := snap["hermes_batcher_queue_wait_seconds:sum"]; math.Abs(got-0.003) > 1e-12 {
		t.Errorf("queue-wait sum = %vs, want 0.003s (one query held 3ms)", got)
	}

	// Stats.Collect publishes the same numbers as scrape-time gauges.
	reg.RegisterCollector(func(r *telemetry.Registry) { b.Stats().Collect(r) })
	snap = reg.Snapshot()
	if got := snap["hermes_batcher_flushes_total"]; got != 4 {
		t.Errorf("flushes = %v, want 4", got)
	}
	if got := snap["hermes_batcher_queries_served_total"]; got != 10 {
		t.Errorf("queries served = %v, want 10", got)
	}
	if got := snap["hermes_batcher_mean_batch"]; got != 2.5 {
		t.Errorf("mean batch = %v, want 2.5", got)
	}
}

// TestBatcherNoTelemetry pins that an unconfigured batcher keeps working —
// the handles are nil and every instrumentation site is a no-op.
func TestBatcherNoTelemetry(t *testing.T) {
	b, err := New(Config{
		MaxBatch: 1,
		MaxWait:  time.Millisecond,
		Process: func(queries [][]float32) ([][]vec.Neighbor, error) {
			return make([][]vec.Neighbor, len(queries)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Search([]float32{1}); err != nil {
		t.Fatal(err)
	}
}
