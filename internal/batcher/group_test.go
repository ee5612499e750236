package batcher

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// keyOf predicts one key per query from its first element, so tests control
// grouping cohorts exactly.
func keyOf(q []float32) []uint64 { return []uint64{uint64(q[0])} }

func TestNormalizeKeysAndOverlap(t *testing.T) {
	keys := normalizeKeys([]uint64{9, 3, 9, 1, 3})
	want := []uint64{1, 3, 9}
	if len(keys) != len(want) {
		t.Fatalf("normalized %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("normalized %v, want %v", keys, want)
		}
	}
	if got := keyOverlap([]uint64{1, 3, 9}, []uint64{2, 3, 4, 9}); got != 2 {
		t.Fatalf("overlap = %d, want 2", got)
	}
	if got := keyOverlap(nil, []uint64{1}); got != 0 {
		t.Fatalf("overlap with nil = %d, want 0", got)
	}
}

// TestGroupedSelection drives takeLocked directly with a fabricated clock:
// the seed is always taken, overlapping queries join in descending-overlap
// order, young non-overlapping queries are held, and expired ones are taken.
func TestGroupedSelection(t *testing.T) {
	base := time.Unix(1000, 0)
	clock := base
	now = func() time.Time { return clock }
	defer func() { now = time.Now }()

	reg := telemetry.NewRegistry()
	b, err := New(Config{
		MaxBatch: 8, MaxWait: 100 * time.Millisecond, GroupSlack: 40 * time.Millisecond,
		Process: echoProcess, Predict: keyOf, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(key uint64, age time.Duration, more ...uint64) *request {
		return &request{
			cells:   normalizeKeys(append([]uint64{key}, more...)),
			arrived: clock.Add(-age),
			done:    make(chan response, 1),
		}
	}
	seed := mk(1, 50*time.Millisecond, 2, 3)
	strong := mk(2, 10*time.Millisecond, 3)     // overlap 2
	weak := mk(3, 5*time.Millisecond)           // overlap 1
	youngStranger := mk(9, 10*time.Millisecond) // no overlap, inside slack
	oldStranger := mk(8, 45*time.Millisecond)   // no overlap, slack expired
	b.pending = []*request{seed, youngStranger, weak, strong, oldStranger}

	batch := b.takeLocked(false)
	got := make([]*request, len(batch))
	copy(got, batch)
	wantOrder := []*request{seed, strong, weak, oldStranger}
	if len(got) != len(wantOrder) {
		t.Fatalf("took %d requests, want %d", len(got), len(wantOrder))
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("position %d wrong request (overlap ordering broken)", i)
		}
	}
	if len(b.pending) != 1 || b.pending[0] != youngStranger {
		t.Fatalf("held-back remainder wrong: %d pending", len(b.pending))
	}
	// Satellite: the queue-depth gauge must reflect the actual remainder,
	// not be reset to zero by the partial take.
	if got := reg.Snapshot()["hermes_batcher_queue_depth"]; got != 1 {
		t.Fatalf("queue depth after partial take = %v, want 1", got)
	}
	if b.Stats().Holdbacks != 1 {
		t.Fatalf("holdbacks = %d, want 1", b.Stats().Holdbacks)
	}
	snap := reg.Snapshot()
	if snap["hermes_batcher_group_holdbacks_total"] != 1 {
		t.Fatalf("holdbacks counter = %v", snap["hermes_batcher_group_holdbacks_total"])
	}
	if snap["hermes_batcher_group_size:count"] != 1 || snap["hermes_batcher_group_overlap:count"] != 3 {
		t.Fatalf("grouping histograms not observed: %v", snap)
	}
	// The held query is a fabricated request nobody waits on: drop it so
	// Close's drain has nothing to flush (its take also stops the re-armed
	// timer).
	b.pending = nil
	b.Close()
}

// TestGroupSlackClampedToMaxWait pins the latency contract: a slack larger
// than MaxWait is clamped, never extending a query's wait beyond MaxWait.
func TestGroupSlackClampedToMaxWait(t *testing.T) {
	b, err := New(Config{
		MaxBatch: 4, MaxWait: 10 * time.Millisecond, GroupSlack: time.Hour,
		Process: echoProcess, Predict: keyOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.cfg.GroupSlack != b.cfg.MaxWait {
		t.Fatalf("GroupSlack = %v, want clamp to %v", b.cfg.GroupSlack, b.cfg.MaxWait)
	}
	if b2, _ := New(Config{MaxBatch: 4, MaxWait: time.Millisecond, GroupSlack: -1,
		Process: echoProcess}); b2.cfg.GroupSlack != 0 {
		t.Fatal("negative GroupSlack not zeroed")
	} else {
		b2.Close()
	}
}

// TestHoldbackFlushesWithinMaxWait is the end-to-end slack behavior: while
// a held batch keeps the batcher busy, a non-overlapping query sits out the
// cohort's size-triggered flush but still completes within its own MaxWait
// via the re-armed timer, without waiting for the held batch to return.
func TestHoldbackFlushesWithinMaxWait(t *testing.T) {
	g := newBusyGate()
	var batches [][]float32
	var mu sync.Mutex
	b, err := New(Config{
		MaxBatch: 3, MaxWait: 60 * time.Millisecond, GroupSlack: 30 * time.Millisecond,
		Predict: keyOf,
		Process: g.wrap(func(qs [][]float32) ([][]vec.Neighbor, error) {
			if qs[0][0] == holdQuery {
				return echoProcess(qs)
			}
			mu.Lock()
			first := make([]float32, 0, len(qs))
			for _, q := range qs {
				first = append(first, q[0])
			}
			batches = append(batches, first)
			mu.Unlock()
			return echoProcess(qs)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	held := g.hold(t, b)

	var wg sync.WaitGroup
	results := make([]int64, 3)
	search := func(i int, v float32) {
		defer wg.Done()
		res, err := b.Search([]float32{v})
		if err != nil {
			t.Errorf("query %v: %v", v, err)
			return
		}
		results[i] = res[0].ID
	}
	// Two cohort-1 queries and one stranger; the third arrival triggers the
	// size take, which must hold the stranger back.
	wg.Add(3)
	go search(0, 1)
	time.Sleep(2 * time.Millisecond)
	go search(1, 9) // stranger: key 9, no overlap, young at take time
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	go search(2, 1)
	wg.Wait() // all three are answered while the held batch is in Process
	elapsed := time.Since(start)
	close(g.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}

	for i, want := range []int64{1, 9, 1} {
		if results[i] != want {
			t.Fatalf("query %d routed wrong result %d", i, results[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("flushed %d batches, want 2 (cohort then held stranger): %v", len(batches), batches)
	}
	if len(batches[0]) != 2 || batches[0][0] != 1 || batches[0][1] != 1 {
		t.Fatalf("first flush %v, want the two key-1 queries", batches[0])
	}
	if len(batches[1]) != 1 || batches[1][0] != 9 {
		t.Fatalf("second flush %v, want the held stranger", batches[1])
	}
	if b.Stats().Holdbacks != 1 {
		t.Fatalf("holdbacks = %d, want 1", b.Stats().Holdbacks)
	}
	// The stranger must not have waited past its own MaxWait (plus margin).
	if elapsed > 200*time.Millisecond {
		t.Fatalf("held query took %v, far beyond MaxWait", elapsed)
	}
}

// TestGroupedEqualsFIFOResults is the batcher-level property test: the same
// random query stream through a FIFO batcher and a grouped batcher must
// return the identical per-query result set, whatever batch shapes the
// scheduler forms — grouping may only change batch composition, never
// routing. Random arrival jitter explores many shapes.
func TestGroupedEqualsFIFOResults(t *testing.T) {
	process := func(qs [][]float32) ([][]vec.Neighbor, error) {
		out := make([][]vec.Neighbor, len(qs))
		for i, q := range qs {
			// A per-query deterministic "result": ID from the query value,
			// score from its square. Any misrouting shows up as a mismatch.
			out[i] = []vec.Neighbor{{ID: int64(q[0]), Score: q[0] * q[0]}}
		}
		return out, nil
	}
	configs := map[string]Config{
		"fifo": {MaxBatch: 8, MaxWait: 2 * time.Millisecond, Process: process},
		"grouped": {MaxBatch: 8, MaxWait: 2 * time.Millisecond, Process: process,
			Predict:    func(q []float32) []uint64 { return []uint64{uint64(q[0]) % 5} },
			GroupSlack: time.Millisecond},
	}
	for seed := int64(0); seed < 3; seed++ {
		got := map[string][]vec.Neighbor{}
		var gotMu sync.Mutex
		for name, cfg := range configs {
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var wg sync.WaitGroup
			results := make([][]vec.Neighbor, 60)
			for i := 0; i < 60; i++ {
				v := float32(rng.Intn(40))
				wg.Add(1)
				go func(name string, i int, v float32) {
					defer wg.Done()
					res, err := b.Search([]float32{v})
					if err != nil {
						t.Errorf("%s query %d: %v", name, i, err)
						return
					}
					results[i] = res
				}(name, i, v)
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				}
			}
			wg.Wait()
			b.Close()
			flat := make([]vec.Neighbor, 0, 60)
			for _, r := range results {
				flat = append(flat, r...)
			}
			gotMu.Lock()
			got[name] = flat
			gotMu.Unlock()
		}
		if len(got["fifo"]) != len(got["grouped"]) {
			t.Fatalf("seed %d: result counts differ: %d vs %d", seed, len(got["fifo"]), len(got["grouped"]))
		}
		for i := range got["fifo"] {
			if got["fifo"][i] != got["grouped"][i] {
				t.Fatalf("seed %d query %d: fifo %+v != grouped %+v",
					seed, i, got["fifo"][i], got["grouped"][i])
			}
		}
	}
}

// TestGroupedSubmittersAndClose is the -race stress for the grouping
// scheduler: many submitters with overlapping/disjoint predictions race the
// slack-window re-armed timers against Close. Contract: every Search returns
// a result or the closed rejection, every accepted query is processed
// exactly once, and Close never strands a held-back query.
func TestGroupedSubmittersAndClose(t *testing.T) {
	var processed int64
	b, err := New(Config{
		MaxBatch:   8,
		MaxWait:    500 * time.Microsecond,
		GroupSlack: 250 * time.Microsecond,
		Predict:    func(q []float32) []uint64 { return []uint64{uint64(q[0]) % 3} },
		Process: func(queries [][]float32) ([][]vec.Neighbor, error) {
			atomic.AddInt64(&processed, int64(len(queries)))
			return echoProcess(queries)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const perWorker = 40
	var served, rejected int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				v := float32(w*perWorker + i)
				res, err := b.Search([]float32{v})
				switch {
				case err == nil && len(res) == 1 && res[0].ID == int64(v):
					atomic.AddInt64(&served, 1)
				case err != nil && strings.Contains(err.Error(), "closed"):
					atomic.AddInt64(&rejected, 1)
				default:
					t.Errorf("worker %d query %d: res=%v err=%v", w, i, res, err)
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(time.Millisecond)
	b.Close()
	b.Close()
	wg.Wait()

	if served+rejected != workers*perWorker {
		t.Fatalf("accounted for %d of %d queries", served+rejected, workers*perWorker)
	}
	if got := atomic.LoadInt64(&processed); got != served {
		t.Fatalf("process saw %d queries, %d were served", got, served)
	}
	t.Logf("served %d, rejected %d, holdbacks %d", served, rejected, b.Stats().Holdbacks)
}
