package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQuantileBracketsTrueQuantile is the histogram's accuracy contract:
// for any sample set and any q, the estimate and the true sample quantile
// lie in the same bucket, so the bucket bounds bracket both. Run over many
// seeded random distributions shaped like real latency data.
func TestQuantileBracketsTrueQuantile(t *testing.T) {
	bounds := DefLatencyBuckets
	maxBound := bounds[len(bounds)-1]
	quantiles := []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(2000)
		samples := make([]float64, n)
		h := newHistogram(bounds)
		for i := range samples {
			// Log-uniform across the bucket range: every decade of the
			// latency scale gets traffic.
			v := math.Exp(rng.Float64()*math.Log(maxBound/bounds[0])) * bounds[0]
			if v > maxBound {
				v = maxBound
			}
			samples[i] = v
			h.Observe(v)
		}
		sort.Float64s(samples)
		for _, q := range quantiles {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			trueQ := samples[rank-1]
			bi := sort.SearchFloat64s(bounds, trueQ)
			lo := 0.0
			if bi > 0 {
				lo = bounds[bi-1]
			}
			hi := bounds[bi]
			est := h.Quantile(q)
			if est < lo || est > hi {
				t.Errorf("seed %d n %d q %.2f: estimate %v outside bucket [%v,%v] of true quantile %v",
					seed, n, q, est, lo, hi, trueQ)
			}
		}
	}
}

func TestQuantileOverflowClampsToLargestBound(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow-only quantile = %v, want largest finite bound 2", got)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(1.5)
	got := h.Quantile(0.5)
	if got <= 1 || got > 2 {
		t.Errorf("single-sample quantile = %v, want in (1,2]", got)
	}
}

// TestTimerUsesClockSeam freezes the package clock and steps it between the
// start and stop reads of a region timed with ObserveDuration, proving no
// real wall-clock dependency.
func TestTimerUsesClockSeam(t *testing.T) {
	orig := now
	defer func() { now = orig }()
	base := time.Unix(1000, 0)
	calls := 0
	now = func() time.Time {
		calls++
		return base.Add(time.Duration(calls-1) * 250 * time.Millisecond)
	}
	h := newHistogram(DefLatencyBuckets)
	start := now()
	h.ObserveDuration(now().Sub(start))
	if h.Count() != 1 {
		t.Fatalf("timer recorded %d observations, want 1", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("timer observed %v s, want 0.25", got)
	}
	h.ObserveDuration(500 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("sum after ObserveDuration = %v, want 0.75", got)
	}
}

// TestHistogramExemplars checks that ObserveExemplar pins a trace ID to the
// bucket the value lands in, that the exposition suffix appears only on
// buckets holding an exemplar (plain histograms render byte-identical to the
// pre-exemplar format — see TestExpositionGolden), and that trace ID 0
// degrades to a plain Observe.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	bounds := []float64{0.01, 0.1, 1}
	h := reg.Histogram("exemplar_seconds", "latency with exemplars", bounds)

	h.Observe(0.005)               // first bucket, no exemplar
	h.ObserveExemplar(0.05, 0)     // trace 0: plain observation
	h.ObserveExemplar(0.5, 0xbeef) // third bucket
	h.ObserveExemplar(5, 0xfeed)   // +Inf overflow bucket

	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2 (trace 0 must not pin)", ex)
	}
	if ex[0].UpperBound != 1 || ex[0].TraceID != 0xbeef || ex[0].Value != 0.5 {
		t.Errorf("bucket exemplar = %+v", ex[0])
	}
	if !math.IsInf(ex[1].UpperBound, 1) || ex[1].TraceID != 0xfeed {
		t.Errorf("overflow exemplar = %+v", ex[1])
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4 (exemplar observations still count)", h.Count())
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	if !strings.Contains(page, `# {trace_id="000000000000beef"} 0.5`) {
		t.Errorf("exposition missing third-bucket exemplar:\n%s", page)
	}
	if !strings.Contains(page, `# {trace_id="000000000000feed"} 5`) {
		t.Errorf("exposition missing +Inf exemplar:\n%s", page)
	}
	// Buckets without exemplars keep the bare cumulative-count format.
	if !strings.Contains(page, `exemplar_seconds_bucket{le="0.01"} 1`+"\n") {
		t.Errorf("exemplar-free bucket line changed format:\n%s", page)
	}
	// A newer exemplar in the same bucket replaces the old one.
	h.ObserveExemplar(0.6, 0xcafe)
	for _, e := range h.Exemplars() {
		if e.UpperBound == 1 && e.TraceID != 0xcafe {
			t.Errorf("exemplar not replaced: %+v", e)
		}
	}
	// Nil handle stays inert.
	var nh *Histogram
	nh.ObserveExemplar(1, 2)
	if nh.Exemplars() != nil {
		t.Error("nil histogram must return no exemplars")
	}
}
