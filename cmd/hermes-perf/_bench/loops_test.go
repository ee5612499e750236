package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 5 * time.Millisecond
	step := openLoop(func(int) error {
		time.Sleep(service)
		return nil
	}, 400, 500*time.Millisecond, rand.New(rand.NewSource(1)))
	if step.sent < 100 || step.failed != 0 || int64(len(step.samples)) != step.sent {
		t.Fatalf("sent %d, failed %d, %d samples", step.sent, step.failed, len(step.samples))
	}
	for i, s := range step.samples {
		if s.lat < service {
			t.Fatalf("sample %d took %v, less than the %v the search slept", i, s.lat, service)
		}
		if s.at < 0 || s.at >= step.dur {
			t.Fatalf("sample %d is due at %v, outside the %v step", i, s.at, step.dur)
		}
	}
	again := openLoop(func(int) error { return nil }, 400, 500*time.Millisecond, rand.New(rand.NewSource(1)))
	if again.sent != step.sent {
		t.Errorf("the same seed scheduled %d arrivals, then %d", step.sent, again.sent)
	}
	if ok, why := step.meets(time.Second); !ok {
		t.Errorf("a 5 ms service at 400 qps misses a 1 s limit: %s", why)
	}
	if ok, _ := step.meets(time.Millisecond); ok {
		t.Error("a 5 ms service meets a 1 ms limit")
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	step := openLoop(func(i int) error {
		if i%2 == 0 {
			return errors.New("refused")
		}
		return nil
	}, 1000, 100*time.Millisecond, rand.New(rand.NewSource(2)))
	if step.failed != (step.sent+1)/2 {
		t.Errorf("%d of %d failed, want every other one", step.failed, step.sent)
	}
	if ok, _ := step.meets(time.Second); ok {
		t.Error("a step with failed requests meets its limit")
	}
}

func TestStepMissesLimitOnGrowingBacklog(t *testing.T) {
	const n = 3000
	step := stepResult{rate: 1000, dur: 3 * time.Second, sent: n,
		lag: make([]time.Duration, n), inflight: make([]int64, n)}
	for i := 0; i < n; i++ {
		step.samples = append(step.samples, sample{lat: time.Millisecond})
		step.inflight[i] = 4
	}
	if ok, why := step.meets(25 * time.Millisecond); !ok {
		t.Fatalf("a flat step misses its limit: %s", why)
	}
	for i := range step.inflight {
		step.inflight[i] = int64(1 + i/10) // climbs to 300 in flight; the limit allows 25
	}
	if ok, _ := step.meets(25 * time.Millisecond); ok {
		t.Error("a step whose backlog climbs to 300 in flight meets its limit")
	}
	for i := range step.inflight {
		step.inflight[i] = 4
		step.lag[i] = time.Duration(i) * 50 * time.Microsecond // generator falls 150 ms behind
	}
	if ok, _ := step.meets(25 * time.Millisecond); ok {
		t.Error("a step whose generator falls 150 ms behind meets its limit")
	}
}

func TestLatencyMetricsPerSlice(t *testing.T) {
	var samples []sample
	// Slice k of five holds k+1 samples per 10 ms, each taking k+1 ms.
	for k := 0; k < 5; k++ {
		for i := 0; i < 100*(k+1); i++ {
			samples = append(samples, sample{at: time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond, lat: time.Duration(k+1) * time.Millisecond})
		}
	}
	qps, p50, p99 := latencyMetrics(samples, 5*time.Second, 5)
	if qps.Value != 300 || qps.Min != 100 || qps.Max != 500 {
		t.Errorf("throughput = %+v, want median 300 in [100, 500]", qps)
	}
	if p50.Value != 3 || p99.Value != 3 || p99.Min != 1 || p99.Max != 5 {
		t.Errorf("p50 = %+v, p99 = %+v, want median 3 ms in [1, 5]", p50, p99)
	}
}
