package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact Prometheus text rendering: family
// ordering, HELP/TYPE lines, label sorting, cumulative histogram buckets,
// and value formatting. Observations are powers of two so the sum is exact.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hermes_requests_total", "total requests by op", "op", "sample").Add(3)
	reg.Counter("hermes_requests_total", "total requests by op", "op", "deep").Inc()
	reg.Gauge("hermes_inflight", "in-flight requests").Set(2.5)
	h := reg.Histogram("hermes_latency_seconds", "request latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.0078125, 0.0625, 0.25, 2} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP hermes_inflight in-flight requests
# TYPE hermes_inflight gauge
hermes_inflight 2.5
# HELP hermes_latency_seconds request latency
# TYPE hermes_latency_seconds histogram
hermes_latency_seconds_bucket{le="0.01"} 1
hermes_latency_seconds_bucket{le="0.1"} 2
hermes_latency_seconds_bucket{le="1"} 3
hermes_latency_seconds_bucket{le="+Inf"} 4
hermes_latency_seconds_sum 2.3203125
hermes_latency_seconds_count 4
# HELP hermes_requests_total total requests by op
# TYPE hermes_requests_total counter
hermes_requests_total{op="deep"} 1
hermes_requests_total{op="sample"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c_total", "c", "k", "v")
	b := reg.Counter("c_total", "c", "k", "v")
	if a != b {
		t.Error("same name+labels must return the same counter handle")
	}
	other := reg.Counter("c_total", "c", "k", "w")
	if a == other {
		t.Error("different labels must return distinct handles")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Errorf("shared handle value = %d, want 2", b.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("m", "m")
}

func TestLabelCanonicalization(t *testing.T) {
	reg := NewRegistry()
	a := reg.Gauge("g", "g", "b", "2", "a", "1")
	b := reg.Gauge("g", "g", "a", "1", "b", "2")
	if a != b {
		t.Error("label order must not distinguish series")
	}
	a.Set(7)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `g{a="1",b="2"} 7`) {
		t.Errorf("labels not rendered sorted:\n%s", sb.String())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var reg *Registry
	reg.Counter("c", "c").Inc()
	reg.Gauge("g", "g").Set(1)
	h := reg.Histogram("h", "h", DefLatencyBuckets)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("nil histogram must read as zero")
	}
	reg.RegisterCollector(func(*Registry) { t.Error("collector must not run on nil registry") })
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Errorf("nil registry snapshot = %v, want empty", snap)
	}
}

func TestCollectorRunsAtScrape(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.RegisterCollector(func(r *Registry) {
		calls++
		r.Gauge("live_value", "set by collector").Set(float64(calls))
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "live_value 1") {
		t.Errorf("collector value missing:\n%s", b.String())
	}
	snap := reg.Snapshot()
	if snap["live_value"] != 2 {
		t.Errorf("snapshot after second collect = %v, want live_value=2", snap["live_value"])
	}
}

// TestCollectorRemove: a removed collector no longer runs, the others keep
// running in registration order, removing twice is harmless, and the
// registry keeps no reference to a removed one.
func TestCollectorRemove(t *testing.T) {
	reg := NewRegistry()
	var order []string
	hook := func(name string) func(*Registry) {
		return func(*Registry) { order = append(order, name) }
	}
	reg.RegisterCollector(hook("a"))
	removeB := reg.RegisterCollector(hook("b"))
	removeC := reg.RegisterCollector(hook("c"))
	removeB()
	removeB()
	var nilReg *Registry
	nilReg.RegisterCollector(hook("d"))()
	reg.Snapshot()
	if got := strings.Join(order, ","); got != "a,c" {
		t.Fatalf("collectors run after removing b: %s, want a,c", got)
	}
	removeC()
	// A removed hook, the last one here, must not linger in the backing
	// array either: it would keep what it closes over reachable.
	released := make(chan struct{})
	func() {
		owner := new([64]byte)
		runtime.SetFinalizer(owner, func(*[64]byte) { close(released) })
		reg.RegisterCollector(func(*Registry) { owner[0]++ })()
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(reg) // the registry, not its own collection, let go of the hook
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 20 {
			t.Fatal("a removed collector is still reachable from the registry")
		}
	}
}

func TestSnapshotKeys(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "c", "op", "x").Add(4)
	h := reg.Histogram("lat", "l", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	snap := reg.Snapshot()
	if snap[`c_total{op="x"}`] != 4 {
		t.Errorf("counter key missing from snapshot: %v", snap)
	}
	if snap["lat:count"] != 2 {
		t.Errorf("histogram count = %v, want 2", snap["lat:count"])
	}
	if snap["lat:sum"] != 2 {
		t.Errorf("histogram sum = %v, want 2", snap["lat:sum"])
	}
	if p95 := snap["lat:p95"]; p95 <= 1 || p95 > 2 {
		t.Errorf("p95 = %v, want in (1,2]", p95)
	}
}
