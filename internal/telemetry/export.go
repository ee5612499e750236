package telemetry

import (
	"io"
	"math"
	"sort"
	"strconv"
)

// This file is the federation surface of the registry: a structured,
// wire-ready export of every family (FamilySnapshot), a merge that folds
// many nodes' exports into one cluster view, and the rendering/flattening
// helpers the coordinator needs to serve the merged view. Snapshot()
// (registry.go) flattens to strings for human tables; Export() keeps the
// structure — kinds, bucket layouts, raw bucket counts — that merging needs.

// FamilySnapshot is one metric family exported for federation. It crosses
// the distsearch wire protocol inside Response, so its fields are part of
// the protocol: a change to them is a wire version bump, pinned by the
// golden frames of internal/distsearch/testdata.
type FamilySnapshot struct {
	Name string
	Help string
	Kind Kind
	// Buckets is the histogram bucket upper-bound layout; nil for counters
	// and gauges.
	Buckets []float64
	Series  []SeriesSnapshot
}

// SeriesSnapshot is one labeled series within an exported family. Counter
// and gauge series carry Value; histogram series carry Count, Sum, and the
// per-bucket (non-cumulative) BucketCounts, len(family.Buckets)+1 with the
// +Inf overflow bucket last.
type SeriesSnapshot struct {
	// Labels is the canonical sorted label block (`k1="v1",k2="v2"`), ""
	// when unlabeled.
	Labels       string
	Value        float64
	Count        int64
	Sum          float64
	BucketCounts []int64
}

// exportCounts snapshots a histogram's buckets. Buckets are read without a
// barrier against concurrent Observes, so the per-bucket total can trail
// count by in-flight observations — the same mid-scrape skew WritePrometheus
// tolerates.
func (h *Histogram) exportCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Export snapshots every family in a structured, mergeable form. Families
// and series are sorted (by name, then label block), so two exports of the
// same registry state are deep-equal. Nil receivers export nil.
func (r *Registry) Export() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.runCollectors()
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		if f.kind == KindHistogram {
			fs.Buckets = append([]float64(nil), f.buckets...)
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ss := SeriesSnapshot{Labels: k}
			switch s := f.series[k].(type) {
			case *Counter:
				ss.Value = float64(s.Value())
			case *Gauge:
				ss.Value = s.Value()
			case *Histogram:
				ss.Count = s.Count()
				ss.Sum = s.Sum()
				ss.BucketCounts = s.exportCounts()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// MergeFamilies folds any number of exports (one per node) into a single
// cluster view. Matching is by family name and series label block. Counters
// and gauges sum — the right cluster semantics for totals and for additive
// gauges like queue depth or in-flight requests (for non-additive gauges,
// consult the per-node breakdown instead). Histograms merge bucket-wise:
// because every input bucket count is an exact tally of observations at or
// below that bound, the merged histogram is exactly the histogram the pooled
// raw observations would have produced, so a quantile estimated from the
// merged buckets lies within the bucket that contains the true pooled-sample
// quantile — the absolute error is bounded by that bucket's width (see
// BucketQuantile). Inputs with mismatched bucket layouts (only possible
// across incompatible binary versions) degrade: count and sum still
// accumulate, bucket counts keep the first-seen layout and the extra input's
// buckets are dropped, so quantiles reflect only layout-compatible nodes.
// The result is sorted by family name, series by label block.
func MergeFamilies(exports ...[]FamilySnapshot) []FamilySnapshot {
	type seriesAcc struct {
		s SeriesSnapshot
	}
	type famAcc struct {
		fs     FamilySnapshot
		series map[string]*seriesAcc
	}
	fams := make(map[string]*famAcc)
	for _, export := range exports {
		for _, fs := range export {
			fa := fams[fs.Name]
			if fa == nil {
				fa = &famAcc{
					fs: FamilySnapshot{
						Name:    fs.Name,
						Help:    fs.Help,
						Kind:    fs.Kind,
						Buckets: append([]float64(nil), fs.Buckets...),
					},
					series: make(map[string]*seriesAcc),
				}
				fams[fs.Name] = fa
			}
			sameLayout := floatsEqual(fa.fs.Buckets, fs.Buckets)
			for _, ss := range fs.Series {
				sa := fa.series[ss.Labels]
				if sa == nil {
					sa = &seriesAcc{s: SeriesSnapshot{Labels: ss.Labels}}
					if sameLayout {
						sa.s.BucketCounts = make([]int64, len(ss.BucketCounts))
					} else if len(fa.fs.Buckets) > 0 {
						sa.s.BucketCounts = make([]int64, len(fa.fs.Buckets)+1)
					}
					fa.series[ss.Labels] = sa
				}
				sa.s.Value += ss.Value
				sa.s.Count += ss.Count
				sa.s.Sum += ss.Sum
				if sameLayout && len(sa.s.BucketCounts) == len(ss.BucketCounts) {
					for i, c := range ss.BucketCounts {
						sa.s.BucketCounts[i] += c
					}
				}
			}
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, name := range names {
		fa := fams[name]
		keys := make([]string, 0, len(fa.series))
		for k := range fa.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fa.fs.Series = append(fa.fs.Series, fa.series[k].s)
		}
		out = append(out, fa.fs)
	}
	return out
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BucketQuantile estimates the q-quantile from exported bucket counts
// (len(bounds)+1, overflow last), mirroring Histogram.Quantile: locate the
// bucket holding the ceil(q*count)-th observation, interpolate linearly
// inside it. The estimate is always bracketed by the bounds of the bucket
// that holds the true sample quantile; observations in the +Inf overflow
// bucket clamp to the largest finite bound. Returns 0 on empty or malformed
// input.
func BucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			return lo + (hi-lo)*float64(rank-cum)/float64(c)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// WriteFamiliesPrometheus renders an exported (typically merged) family set
// in the Prometheus text exposition format — the same shape
// Registry.WritePrometheus produces, minus exemplars, which are per-node
// debugging pointers that do not survive a merge.
func WriteFamiliesPrometheus(w io.Writer, fams []FamilySnapshot) error {
	for _, fs := range fams {
		if _, err := io.WriteString(w,
			"# HELP "+fs.Name+" "+fs.Help+"\n# TYPE "+fs.Name+" "+fs.Kind.String()+"\n"); err != nil {
			return err
		}
		for _, ss := range fs.Series {
			var err error
			switch fs.Kind {
			case KindCounter:
				err = seriesLine(w, fs.Name, ss.Labels, strconv.FormatInt(int64(ss.Value), 10))
			case KindHistogram:
				err = writeSnapshotHistogram(w, fs, ss)
			default:
				err = seriesLine(w, fs.Name, ss.Labels, formatFloat(ss.Value))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSnapshotHistogram(w io.Writer, fs FamilySnapshot, ss SeriesSnapshot) error {
	var cum int64
	if len(ss.BucketCounts) == len(fs.Buckets)+1 {
		for i, bound := range fs.Buckets {
			cum += ss.BucketCounts[i]
			le := "le=\"" + formatFloat(bound) + "\""
			if ss.Labels != "" {
				le = ss.Labels + "," + le
			}
			if err := seriesLine(w, fs.Name+"_bucket", le, strconv.FormatInt(cum, 10)); err != nil {
				return err
			}
		}
		cum += ss.BucketCounts[len(fs.Buckets)]
		le := `le="+Inf"`
		if ss.Labels != "" {
			le = ss.Labels + "," + le
		}
		if err := seriesLine(w, fs.Name+"_bucket", le, strconv.FormatInt(cum, 10)); err != nil {
			return err
		}
	}
	if err := seriesLine(w, fs.Name+"_sum", ss.Labels, formatFloat(ss.Sum)); err != nil {
		return err
	}
	return seriesLine(w, fs.Name+"_count", ss.Labels, strconv.FormatInt(ss.Count, 10))
}

// FlattenFamilies turns an exported family set into the same key->value map
// Registry.Snapshot produces (`name{labels}` plus `:count/:sum/:p50/:p95/
// :p99` for histograms), so table renderers written against Snapshot keys —
// hermes-coordinator -stats/-watch — consume a merged cluster view
// unchanged.
func FlattenFamilies(fams []FamilySnapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, fs := range fams {
		for _, ss := range fs.Series {
			base := fs.Name
			if ss.Labels != "" {
				base += "{" + ss.Labels + "}"
			}
			if fs.Kind == KindHistogram {
				out[base+":count"] = float64(ss.Count)
				out[base+":sum"] = ss.Sum
				out[base+":p50"] = BucketQuantile(fs.Buckets, ss.BucketCounts, 0.50)
				out[base+":p95"] = BucketQuantile(fs.Buckets, ss.BucketCounts, 0.95)
				out[base+":p99"] = BucketQuantile(fs.Buckets, ss.BucketCounts, 0.99)
			} else {
				out[base] = ss.Value
			}
		}
	}
	return out
}
