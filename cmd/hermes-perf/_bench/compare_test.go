package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_qps", Better: "higher", Bound: 0.1}
	tight := func(v float64) metric { return metric{Value: v, Min: v * 0.99, Max: v * 1.01} }
	noisy := func(v float64) metric { return metric{Value: v, Min: v * 0.8, Max: v * 1.2} }
	cases := []struct {
		spec metricSpec
		a, b metric
		want string
	}{
		{lower, tight(1.0), tight(1.05), "within bound"},
		{lower, tight(1.0), tight(1.2), "REGRESSION"},
		{lower, tight(1.0), tight(0.5), "within bound"},
		{higher, tight(1000), tight(850), "REGRESSION"},
		{higher, tight(1000), tight(1200), "within bound"},
		// Either side's spread over the bound: the bound cannot be checked.
		{lower, noisy(1.0), tight(1.0), "unresolved"},
		{lower, tight(1.0), noisy(1.2), "unresolved"},
		// A difference larger than the noise is a regression all the same.
		{lower, noisy(1.0), noisy(2.0), "REGRESSION"},
	}
	for _, c := range cases {
		if _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
