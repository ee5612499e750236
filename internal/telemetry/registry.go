// Package telemetry is the runtime observability layer of the serving path:
// a concurrency-safe metric registry (counters, gauges, and fixed-bucket
// latency histograms with quantile estimation) rendered in the Prometheus
// text exposition format, request-scoped span tracing (trace.go), and an
// admin HTTP server exposing /metrics, /healthz, and /debug/pprof (admin.go),
// plus a flight recorder of completed queries at /debug/queries (recorder.go).
//
// Naming note: this package is about *runtime* metrics — counters, latency
// histograms, traces of the live serving process. Retrieval-*quality*
// metrics (NDCG, recall@k, latency summaries of offline experiments, the
// energy ledger) live in internal/metrics. If the number describes how well
// retrieval worked, import internal/metrics; if it describes what the
// running system is doing, import this package.
//
// The package is stdlib-only and dependency-free within the repo, so every
// layer (distsearch, batcher, kvcache, the hermes store) can hang metrics on
// it without import cycles. All wall-clock reads go through the injectable
// `now` seam, keeping the repo's wallclock convention: tests freeze time,
// and nothing couples a modeled result to host speed by accident.
//
// Nil-safety is part of the API contract: a nil *Registry hands out nil
// metric handles, and every method on a nil handle is a no-op. Instrumented
// code can therefore record unconditionally and let the caller decide
// whether telemetry is on.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// now is the injectable clock seam; tests swap it to freeze or step time.
var now = time.Now

// Kind discriminates the metric families a registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// series is one labeled instance within a family.
type series interface {
	// write renders the instance in exposition format. name is the family
	// name, labels the rendered {k="v"} block ("" when unlabeled).
	write(w io.Writer, name, labels string) error
	// snapshot flattens the instance into key->value pairs under base
	// (family name + label block).
	snapshot(base string, out map[string]float64)
}

// family is one named metric family: a kind, help text, and its labeled
// series.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]series
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; call NewRegistry. Default is the process-wide
// registry the commands serve on their admin endpoint.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	collMu     sync.Mutex
	collectors []*collector
}

// Default is the process-wide registry used when instrumented layers are not
// handed an explicit one.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders alternating key/value pairs into a canonical, sorted
// label block (`k1="v1",k2="v2"`). It panics on an odd-length list — that is
// a compile-time-shaped programming error, not a runtime condition.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

// getFamily returns the named family, creating it on first use, and panics
// if the name was previously registered under a different kind — silently
// aliasing a counter as a gauge corrupts every later read.
func (r *Registry) getFamily(name, help string, kind Kind, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]series)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name with the given alternating
// label key/value pairs, creating it on first use. Safe for concurrent use;
// nil receivers return a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindCounter, nil)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns the gauge for name/labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindGauge, nil)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram returns the histogram for name/labels, creating it on first use
// with the given bucket upper bounds (strictly increasing; an implicit +Inf
// overflow bucket is appended). Buckets are fixed per family: the first
// registration wins and later calls reuse them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindHistogram, validateBuckets(buckets))
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.(*Histogram)
	}
	h := newHistogram(f.buckets)
	f.series[key] = h
	return h
}

// RegisterCollector adds a hook run at the start of every WritePrometheus
// and Snapshot call — the seam through which snapshot-style stats
// (kvcache.Stats, batcher.Stats) publish live values at scrape time. The
// returned func removes the hook again; a hook whose owner is closed must be
// removed, or the registry keeps the owner reachable and calls into it on
// every scrape. Removing twice is a no-op.
func (r *Registry) RegisterCollector(f func(*Registry)) (remove func()) {
	if r == nil || f == nil {
		return func() {}
	}
	c := &collector{f: f}
	r.collMu.Lock()
	//lint:ignore chanbound registration-time wiring: one append per collector hooked at startup, removed when its owner closes, never per-request growth
	r.collectors = append(r.collectors, c)
	r.collMu.Unlock()
	return func() {
		r.collMu.Lock()
		defer r.collMu.Unlock()
		for i, got := range r.collectors {
			if got == c {
				// Delete zeroes the vacated slot: the array must not keep
				// the hook, and with it its owner, reachable.
				r.collectors = slices.Delete(r.collectors, i, i+1)
				return
			}
		}
	}
}

// collector is one registered hook; its address identifies it for removal.
type collector struct{ f func(*Registry) }

// runCollectors invokes registered collectors outside the registry lock so
// they are free to create and set metrics.
func (r *Registry) runCollectors() {
	r.collMu.Lock()
	colls := make([]*collector, len(r.collectors))
	copy(colls, r.collectors)
	r.collMu.Unlock()
	for _, c := range colls {
		c.f(r)
	}
}

// sortedFamilies snapshots the family set in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (families and series in deterministic sorted order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runCollectors()
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, s := range sers {
			if err := s.write(w, f.name, keys[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot flattens the registry into metric-key -> value pairs. Counters
// and gauges map to `name{labels}`; histograms additionally expose
// `:count`, `:sum`, `:p50`, `:p95`, and `:p99` suffixes. The map travels
// in Response.Telemetry, which is how a node ships its full telemetry over
// OpStats.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.runCollectors()
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		for key, s := range f.series {
			base := f.name
			if key != "" {
				base += "{" + key + "}"
			}
			s.snapshot(base, out)
		}
		f.mu.Unlock()
	}
	return out
}
