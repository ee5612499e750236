package batcher

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vec"
)

// TestIdleDispatchDoesNotWait pins rule (b): an arrival at an idle batcher
// flushes at once, so a lone query never pays MaxWait.
func TestIdleDispatchDoesNotWait(t *testing.T) {
	b, err := New(Config{MaxBatch: 100, MaxWait: time.Hour, Process: echoProcess})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 10; i++ {
		done := make(chan []vec.Neighbor, 1)
		go func(i int) {
			res, err := b.Search([]float32{float32(i)})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}(i)
		select {
		case res := <-done:
			if len(res) != 1 || res[0].ID != int64(i) {
				t.Fatalf("query %d got %+v", i, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("lone query waited on an idle batcher")
		}
	}
	if st := b.Stats(); st.Flushes != 10 {
		t.Fatalf("flushes = %d, want one per sequential query", st.Flushes)
	}
}

// TestBatchFormsWhileBusy: queries that arrive while a batch is in flight
// queue, and leave together in the one flush taken when it returns.
func TestBatchFormsWhileBusy(t *testing.T) {
	const n = 7
	g := newBusyGate()
	sizes := make(chan int, n+1) // room for one flush per query
	b, err := New(Config{MaxBatch: n + 1, MaxWait: time.Hour,
		Process: g.wrap(func(qs [][]float32) ([][]vec.Neighbor, error) {
			sizes <- len(qs)
			return echoProcess(qs)
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	held := g.hold(t, b)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Search([]float32{float32(i)})
			if err != nil || len(res) != 1 || res[0].ID != int64(i) {
				t.Errorf("query %d: %v, %v", i, res, err)
			}
		}(i)
	}
	waitPending(t, b, n)
	close(g.release)
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if held, next := <-sizes, <-sizes; held != 1 || next != n {
		t.Fatalf("flush sizes %d then %d, want 1 then %d", held, next, n)
	}
}

// TestMaxWaitBoundsSlowProcess pins MaxWait as the bound on queueing delay:
// a query queued behind a batch that runs for 20×MaxWait enters Process
// within MaxWait (plus scheduling margin), not when that batch returns.
func TestMaxWaitBoundsSlowProcess(t *testing.T) {
	const maxWait = 10 * time.Millisecond
	entered := make(chan time.Time, 1)
	b, err := New(Config{MaxBatch: 100, MaxWait: maxWait,
		Process: func(qs [][]float32) ([][]vec.Neighbor, error) {
			if qs[0][0] == holdQuery {
				time.Sleep(20 * maxWait)
			} else {
				entered <- time.Now()
			}
			return echoProcess(qs)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	go b.Search([]float32{holdQuery})
	waitUntil(t, b, "the slow batch", func() bool { return b.busy > 0 })
	start := time.Now()
	if _, err := b.Search([]float32{1}); err != nil {
		t.Fatal(err)
	}
	wait := (<-entered).Sub(start)
	if wait < maxWait*8/10 || wait > maxWait+50*time.Millisecond {
		t.Fatalf("queued query entered Process after %v, want about MaxWait (%v)", wait, maxWait)
	}
}

// TestStaleTimerCallbackIgnored: Timer.Stop cannot recall a callback that
// has already fired, so a callback can run after the take it raced. It must
// leave a query that is not yet due pending rather than flush it beside the
// batch in flight.
func TestStaleTimerCallbackIgnored(t *testing.T) {
	g := newBusyGate()
	b, err := New(Config{MaxBatch: 100, MaxWait: time.Hour, Process: g.wrap(echoProcess)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	held := g.hold(t, b)
	done := make(chan error, 1)
	go func() {
		_, err := b.Search([]float32{1})
		done <- err
	}()
	waitPending(t, b, 1)
	b.flushTimer()
	b.mu.Lock()
	busy, pending := b.busy, len(b.pending)
	b.mu.Unlock()
	if busy != 1 || pending != 1 {
		t.Fatalf("stale callback left %d in flight, %d pending; want 1 and 1", busy, pending)
	}
	close(g.release)
	for _, ch := range []<-chan error{done, held} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneBatchInFlight: with MaxBatch out of reach and MaxWait an hour away,
// only the idle rule dispatches, so a burst never has two batches inside
// Process at once — and still shares batches.
func TestOneBatchInFlight(t *testing.T) {
	var inside, most atomic.Int32
	b, err := New(Config{MaxBatch: 1 << 20, MaxWait: time.Hour,
		Process: func(qs [][]float32) ([][]vec.Neighbor, error) {
			n := inside.Add(1)
			for {
				m := most.Load()
				if n <= m || most.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inside.Add(-1)
			return echoProcess(qs)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const workers, perWorker = 32, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := float32(w*perWorker + i)
				if res, err := b.Search([]float32{v}); err != nil || res[0].ID != int64(v) {
					t.Errorf("query %v: %v, %v", v, res, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := most.Load(); got != 1 {
		t.Fatalf("%d batches inside Process at once, want 1", got)
	}
	st := b.Stats()
	if st.QueriesServed != workers*perWorker || st.Flushes >= st.QueriesServed {
		t.Fatalf("served %d in %d flushes; a burst should share batches", st.QueriesServed, st.Flushes)
	}
}

// TestCloseWaitsForChainedFlushes races Close against a stream whose
// batches chain one into the next: no Process call may start after Close
// returns, and every query is either served or rejected.
func TestCloseWaitsForChainedFlushes(t *testing.T) {
	var closed atomic.Bool
	var late, processed atomic.Int64
	b, err := New(Config{MaxBatch: 1 << 20, MaxWait: time.Hour,
		Process: func(qs [][]float32) ([][]vec.Neighbor, error) {
			if closed.Load() {
				late.Add(1)
			}
			processed.Add(int64(len(qs)))
			time.Sleep(time.Millisecond)
			return echoProcess(qs)
		}})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var served, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Search([]float32{1})
				switch {
				case err == nil:
					served.Add(1)
				case strings.Contains(err.Error(), "closed"):
					rejected.Add(1)
					return
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	b.Close()
	closed.Store(true)
	wg.Wait()
	time.Sleep(5 * time.Millisecond) // room for a stray chained flush to show
	if n := late.Load(); n != 0 {
		t.Fatalf("%d Process calls started after Close returned", n)
	}
	if served.Load() == 0 || rejected.Load() != workers {
		t.Fatalf("served %d, rejected %d; want some served and every worker rejected once", served.Load(), rejected.Load())
	}
	if got := processed.Load(); got != served.Load() {
		t.Fatalf("process saw %d queries, %d were served", got, served.Load())
	}
}
