package main

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// metric is one reported number. Value is the median over the run's slices
// and Min/Max the extremes over them, printed as the noise estimate; for a
// number measured once all three are equal.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func single(v float64, unit string) metric { return metric{Value: v, Unit: unit, Min: v, Max: v} }

// overSlices summarises per-slice values as median with min and max.
func overSlices(vals []float64, unit string) metric {
	if len(vals) == 0 {
		return metric{Unit: unit}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return metric{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1]}
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sample is one completed operation: when it counts (offset from the start
// of the window: completion time in a closed loop, due time in an open one)
// and how long it took.
type sample struct {
	at, lat time.Duration
}

// bySlice cuts a window into n equal slices and returns each slice's
// latencies.
func bySlice(samples []sample, window time.Duration, n int) [][]time.Duration {
	out := make([][]time.Duration, n)
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		i := int(int64(s.at) * int64(n) / int64(window))
		out[i] = append(out[i], s.lat)
	}
	return out
}

// latencyMetrics reports per-slice throughput, median and 99th percentile.
func latencyMetrics(samples []sample, window time.Duration, slices int) (qps, p50, p99 metric) {
	var q, a, b []float64
	perSlice := window.Seconds() / float64(slices)
	for _, lat := range bySlice(samples, window, slices) {
		q = append(q, float64(len(lat))/perSlice)
		if len(lat) > 0 {
			sum := metrics.Summarize(lat)
			a = append(a, ms(sum.P50))
			b = append(b, ms(sum.P99))
		}
	}
	return overSlices(q, "1/s"), overSlices(a, "ms"), overSlices(b, "ms")
}
