package batcher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vec"
)

// echoProcess returns each query's first element as the neighbor ID.
func echoProcess(queries [][]float32) ([][]vec.Neighbor, error) {
	out := make([][]vec.Neighbor, len(queries))
	for i, q := range queries {
		out[i] = []vec.Neighbor{{ID: int64(q[0])}}
	}
	return out, nil
}

// holdQuery marks the query a busyGate blocks on.
const holdQuery = 999

// busyGate keeps a batcher busy on demand: a batch led by holdQuery blocks
// inside Process until release is closed, so the batch under test forms
// behind it. An idle batcher flushes every arrival at once, so this is how a
// test gets queries to queue at all.
type busyGate struct {
	entered chan struct{}
	release chan struct{}
}

func newBusyGate() *busyGate {
	return &busyGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

// wrap returns proc with the gate in front of it. The hold gives up after
// ten seconds, so a test that fails before releasing it cannot hang in the
// deferred Close.
func (g *busyGate) wrap(proc ProcessFunc) ProcessFunc {
	return func(qs [][]float32) ([][]vec.Neighbor, error) {
		if qs[0][0] == holdQuery {
			g.entered <- struct{}{}
			select {
			case <-g.release:
			case <-time.After(10 * time.Second):
			}
		}
		return proc(qs)
	}
}

// hold submits holdQuery to the idle batcher and returns once its batch is
// inside Process; the returned channel yields that Search's error after the
// gate is released.
func (g *busyGate) hold(t *testing.T, b *Batcher) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.Search([]float32{holdQuery})
		done <- err
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("holding query never entered Process")
	}
	return done
}

// waitUntil polls cond, called with b.mu held, until it holds.
func waitUntil(t *testing.T, b *Batcher, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		ok := cond()
		b.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitPending polls until exactly n queries are queued.
func waitPending(t *testing.T, b *Batcher, n int) {
	t.Helper()
	waitUntil(t, b, fmt.Sprintf("%d pending queries", n), func() bool { return len(b.pending) == n })
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{MaxBatch: 0, MaxWait: time.Millisecond, Process: echoProcess}); err == nil {
		t.Fatal("MaxBatch=0 should error")
	}
	if _, err := New(Config{MaxBatch: 4, MaxWait: 0, Process: echoProcess}); err == nil {
		t.Fatal("MaxWait=0 should error")
	}
	if _, err := New(Config{MaxBatch: 4, MaxWait: time.Millisecond}); err == nil {
		t.Fatal("nil Process should error")
	}
}

// TestResultsRoutedToCallers queues 16 queries behind a held batch, so they
// leave in shared batches: three MaxBatch flushes while the batcher is busy
// and one chained flush of the last three when the held batch returns. Every
// caller must get its own result back.
func TestResultsRoutedToCallers(t *testing.T) {
	g := newBusyGate()
	b, err := New(Config{MaxBatch: 4, MaxWait: time.Hour, Process: g.wrap(echoProcess)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	held := g.hold(t, b)
	var wg sync.WaitGroup
	for i := 0; i < 15; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Search([]float32{float32(i)})
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if len(res) != 1 || res[0].ID != int64(i) {
				t.Errorf("query %d got %+v", i, res)
			}
		}(i)
	}
	// Twelve of the fifteen leave in three MaxBatch flushes; the last three
	// then queue behind the held batch.
	waitUntil(t, b, "three MaxBatch flushes", func() bool { return b.queriesServed == 12 })
	waitPending(t, b, 3)
	close(g.release)
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.QueriesServed != 16 || st.Flushes != 5 {
		t.Fatalf("served %d in %d flushes, want 16 in 5", st.QueriesServed, st.Flushes)
	}
}

// TestMaxBatchFlushesImmediately pins rule (a): MaxBatch waiting queries
// flush at once, beside a batch already in flight and despite a one-hour
// MaxWait.
func TestMaxBatchFlushesImmediately(t *testing.T) {
	g := newBusyGate()
	sizes := make(chan int, 9) // room for one flush per query
	b, err := New(Config{MaxBatch: 4, MaxWait: time.Hour,
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
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Search([]float32{float32(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait() // completes while the held batch is still inside Process
	for i := 0; i < 2; i++ {
		if n := <-sizes; n != 4 {
			t.Errorf("batch size %d, want 4", n)
		}
	}
	close(g.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Flushes != 3 {
		t.Fatalf("flushes = %d, want 3 (held batch, then two full ones)", st.Flushes)
	}
}

// TestMaxWaitFlushesPartialBatch pins rule (c): a query queued behind a
// batch that does not return flushes, alone, once it has waited MaxWait —
// not earlier, and without waiting for the batch in flight.
func TestMaxWaitFlushesPartialBatch(t *testing.T) {
	g := newBusyGate()
	b, err := New(Config{MaxBatch: 100, MaxWait: 10 * time.Millisecond, Process: g.wrap(echoProcess)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	held := g.hold(t, b)
	start := time.Now()
	res, err := b.Search([]float32{7})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 7 {
		t.Fatalf("got %+v", res)
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("partial batch flushed too early: %v", elapsed)
	}
	close(g.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

func TestProcessErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	b, err := New(Config{MaxBatch: 2, MaxWait: time.Millisecond,
		Process: func([][]float32) ([][]vec.Neighbor, error) { return nil, boom }})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Search([]float32{1}); !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestMismatchedResultsError(t *testing.T) {
	b, err := New(Config{MaxBatch: 2, MaxWait: time.Millisecond,
		Process: func(qs [][]float32) ([][]vec.Neighbor, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Search([]float32{1}); err == nil {
		t.Fatal("mismatched result count should error")
	}
}

func TestCloseFlushesAndRejects(t *testing.T) {
	g := newBusyGate()
	b, err := New(Config{MaxBatch: 100, MaxWait: time.Hour, Process: g.wrap(echoProcess)})
	if err != nil {
		t.Fatal(err)
	}
	held := g.hold(t, b)
	done := make(chan error, 1)
	go func() {
		_, err := b.Search([]float32{1})
		done <- err
	}()
	// The query queues behind the held batch; Close must flush it rather
	// than strand it.
	waitPending(t, b, 1)
	time.AfterFunc(5*time.Millisecond, func() { close(g.release) })
	b.Close()
	for _, ch := range []<-chan error{done, held} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("query failed on close: %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("query stranded by Close")
		}
	}
	if _, err := b.Search([]float32{2}); err == nil {
		t.Fatal("post-close Search should error")
	}
	b.Close() // double close is safe
}

// TestCloseWaitsForTimerFlush pins the Close drain contract for a MaxWait
// flush: it runs on its own goroutine beside the batch in flight, so
// without the in-flight WaitGroup Close could return while cfg.Process was
// still executing — and callers tear down the processor right after Close.
func TestCloseWaitsForTimerFlush(t *testing.T) {
	g := newBusyGate()
	var timerFlushes, finished atomic.Int32
	b, err := New(Config{MaxBatch: 100, MaxWait: time.Millisecond,
		Process: g.wrap(func(qs [][]float32) ([][]vec.Neighbor, error) {
			if qs[0][0] != holdQuery {
				timerFlushes.Add(1)
				time.Sleep(30 * time.Millisecond) // Close must outwait this
			}
			finished.Add(1)
			return echoProcess(qs)
		})})
	if err != nil {
		t.Fatal(err)
	}
	g.hold(t, b)
	go b.Search([]float32{1})
	// Wait for the MaxWait flush to enter Process beside the held batch,
	// then race Close against both.
	for timerFlushes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	b.Close()
	if got := finished.Load(); got != 2 {
		t.Fatalf("Close returned with %d Process calls finished, want 2 (flush still in flight)", got)
	}
}
