package evlog

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// freezeClock pins the package clock and returns a stepper.
func freezeClock(t *testing.T) func(d time.Duration) {
	t.Helper()
	cur := time.Date(2026, 1, 2, 15, 4, 5, 0, time.UTC)
	old := now
	now = func() time.Time { return cur }
	t.Cleanup(func() { now = old })
	return func(d time.Duration) { cur = cur.Add(d) }
}

func TestRingRetainsNewest(t *testing.T) {
	freezeClock(t)
	l := New(Config{Capacity: 4})
	for i := int64(1); i <= 6; i++ {
		l.Info("tick", Int("i", i))
	}
	events := l.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(6 - i)
		if e.Seq != wantSeq {
			t.Errorf("event %d seq = %d, want %d (newest first)", i, e.Seq, wantSeq)
		}
		if e.N != 1 || e.Fields[0].Num != int64(wantSeq) {
			t.Errorf("event %d fields = %+v", i, e.Fields[:e.N])
		}
	}
	if s := l.Stats(); s.Emitted != 6 || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMinLevel(t *testing.T) {
	freezeClock(t)
	l := New(Config{MinLevel: LevelWarn})
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	events := l.Events()
	if len(events) != 2 || events[0].Name != "e" || events[1].Name != "w" {
		t.Fatalf("events = %+v", events)
	}
}

func TestRateLimitPerName(t *testing.T) {
	step := freezeClock(t)
	l := New(Config{RatePerSec: 1, Burst: 2})
	for i := 0; i < 5; i++ {
		l.Warn("noisy")
	}
	l.Warn("quiet") // independent bucket: not starved by "noisy"
	if got := len(l.Events()); got != 3 {
		t.Fatalf("retained %d events, want 3 (burst 2 of noisy + 1 quiet)", got)
	}
	if s := l.Stats(); s.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", s.Dropped)
	}
	if d := l.DroppedByName(); d["noisy"] != 3 || d["quiet"] != 0 {
		t.Errorf("droppedBy = %v", d)
	}
	step(2 * time.Second) // refill 2 tokens
	l.Warn("noisy")
	l.Warn("noisy")
	l.Warn("noisy")
	if s := l.Stats(); s.Emitted != 5 || s.Dropped != 4 {
		t.Errorf("after refill stats = %+v, want 5 emitted / 4 dropped", s)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(LevelError, "x", Int("a", 1))
	l.Info("y")
	if l.Events() != nil || l.Stats() != (Stats{}) || l.DroppedByName() != nil {
		t.Error("nil log leaked state")
	}
}

// TestEmitAllocs pins the hot-path contract: emitting with constructor-built
// fields allocates nothing — on a nil (disabled) log, which is what gated
// //hermes:hotpath call sites rely on, below a log's level floor, and on an
// enabled log, whose ring slots are preallocated.
func TestEmitAllocs(t *testing.T) {
	var nilLog *Log
	if got := testing.AllocsPerRun(100, func() {
		nilLog.Warn("deadline.hit", Int("shard", 3), Dur("after", time.Second), Str("addr", "x"))
	}); got != 0 {
		t.Errorf("disabled emit allocates %v/op, want 0", got)
	}
	leveled := New(Config{Capacity: 64, MinLevel: LevelError})
	if got := testing.AllocsPerRun(100, func() {
		leveled.Info("deadline.hit", Int("shard", 3), Dur("after", time.Second), Str("addr", "x"))
	}); got != 0 {
		t.Errorf("emit below the level floor allocates %v/op, want 0", got)
	}
	freezeClock(t)
	l := New(Config{Capacity: 64, RatePerSec: 1e9, Burst: 1})
	l.Warn("deadline.hit") // warm the rate bucket and dropped map path
	if got := testing.AllocsPerRun(100, func() {
		l.Warn("deadline.hit", Int("shard", 3), Dur("after", time.Second), Str("addr", "x"))
	}); got != 0 {
		t.Errorf("enabled emit allocates %v/op, want 0", got)
	}
}

func TestEventString(t *testing.T) {
	freezeClock(t)
	l := New(Config{})
	l.Warn("conn.poisoned", Int("shard", 2), Err(errors.New("read timeout")), Dur("after", 1500*time.Millisecond), Float("ratio", 0.5))
	got := l.Events()[0].String()
	want := `2026-01-02T15:04:05.000Z WARN  conn.poisoned shard=2 err="read timeout" after=1.5s ratio=0.5`
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if f := Err(nil); f.Str != "" || f.Key != "err" {
		t.Errorf("Err(nil) = %+v", f)
	}
}

func TestFieldTruncation(t *testing.T) {
	freezeClock(t)
	l := New(Config{})
	fields := make([]Field, MaxFields+3)
	for i := range fields {
		fields[i] = Int("k", int64(i))
	}
	l.Info("wide", fields...)
	if e := l.Events()[0]; e.N != MaxFields {
		t.Errorf("N = %d, want %d", e.N, MaxFields)
	}
}

func TestServeEvents(t *testing.T) {
	freezeClock(t)
	l := New(Config{})
	l.Warn("node.redial", Int("shard", 1), Str("addr", "127.0.0.1:7001"))

	rec := httptest.NewRecorder()
	l.ServeEvents(rec, httptest.NewRequest("GET", "/debug/events", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "node.redial") || !strings.Contains(body, `addr="127.0.0.1:7001"`) {
		t.Errorf("text body missing event: %s", body)
	}

	rec = httptest.NewRecorder()
	l.ServeEvents(rec, httptest.NewRequest("GET", "/debug/events?format=json", nil))
	var out struct {
		Emitted uint64 `json:"emitted"`
		Events  []struct {
			Name   string         `json:"name"`
			Level  string         `json:"level"`
			Fields map[string]any `json:"fields"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("json: %v\n%s", err, rec.Body.String())
	}
	if out.Emitted != 1 || len(out.Events) != 1 || out.Events[0].Name != "node.redial" ||
		out.Events[0].Level != "WARN" || out.Events[0].Fields["shard"] != float64(1) {
		t.Errorf("json = %+v", out)
	}

	rec = httptest.NewRecorder()
	(*Log)(nil).ServeEvents(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if !strings.Contains(rec.Body.String(), "disabled") {
		t.Errorf("nil handler body = %q", rec.Body.String())
	}
}

// TestConcurrentEmit exercises the ring under -race.
func TestConcurrentEmit(t *testing.T) {
	l := New(Config{Capacity: 32, RatePerSec: 1000, Burst: 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Info("spin", Int("g", int64(g)), Int("i", int64(i)))
				if i%50 == 0 {
					l.Events()
					l.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := l.Stats()
	if s.Emitted+s.Dropped != 1600 {
		t.Errorf("emitted %d + dropped %d != 1600", s.Emitted, s.Dropped)
	}
}
