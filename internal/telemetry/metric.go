package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// formatFloat renders a metric value the way Prometheus clients do: shortest
// round-trippable representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesLine writes one `name{labels} value` exposition line.
func seriesLine(w io.Writer, name, labels, value string) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	return err
}

// Counter is a monotonically increasing integer metric (requests, bytes,
// errors). All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name, labels string) error {
	return seriesLine(w, name, labels, strconv.FormatInt(c.Value(), 10))
}

func (c *Counter) snapshot(base string, out map[string]float64) {
	out[base] = float64(c.Value())
}

// Gauge is an instantaneous float value (queue depth, in-flight requests,
// cache occupancy). Safe for concurrent use; no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w io.Writer, name, labels string) error {
	return seriesLine(w, name, labels, formatFloat(g.Value()))
}

func (g *Gauge) snapshot(base string, out map[string]float64) {
	out[base] = g.Value()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}
