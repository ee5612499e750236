// Package scaling calibrates the relationship between datastore size and
// retrieval cost by measuring real in-process IVF indexes across a size
// sweep and fitting a linear model, then extrapolating to sizes that cannot
// be instantiated (the paper does exactly this for its trillion-token
// points: Figure 6 marks 1T latencies as extrapolated, and Figure 7's claim
// that latency/energy/memory scale linearly with datastore size is what the
// fit verifies).
package scaling

import (
	"fmt"
	"time"

	"repro/internal/ivf"
	"repro/internal/quant"
	"repro/internal/vec"
)

// now is the wall-clock seam for the measured sweep. The analytical model
// itself never reads the wall (the wallclock lint check enforces it), and
// tests stub this to make timing deterministic.
var now = time.Now

// Point is one measured or extrapolated observation.
type Point struct {
	Tokens int64
	// LatencyPerQuery is mean single-query search latency.
	LatencyPerQuery time.Duration
	// MemoryBytes is the index footprint.
	MemoryBytes int64
	// VectorsScanned is the mean per-query scan count.
	VectorsScanned float64
	// Measured is true for real runs, false for extrapolations.
	Measured bool
}

// LinearFit is y = Slope*x + Intercept obtained by least squares.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Fit performs ordinary least squares on (x, y). It panics on mismatched or
// empty input since callers control the sweep.
func Fit(x, y []float64) LinearFit {
	if len(x) != len(y) || len(x) == 0 {
		panic(fmt.Sprintf("scaling: Fit needs matched non-empty series, got %d/%d", len(x), len(y)))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	denom := n*sxx - sx*sx
	var slope float64
	if denom != 0 {
		slope = (n*sxy - sx*sy) / denom
	}
	intercept := (sy - slope*sx) / n
	// R^2.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		pred := slope*x[i] + intercept
		ssTot += (y[i] - meanY) * (y[i] - meanY)
		ssRes += (y[i] - pred) * (y[i] - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}

// At evaluates the fit.
func (f LinearFit) At(x float64) float64 { return f.Slope*x + f.Intercept }

// SweepConfig controls a calibration sweep.
type SweepConfig struct {
	// Dim is the embedding dimensionality.
	Dim int
	// Sizes are vector counts to measure.
	Sizes []int
	// TokensPerChunk converts vector counts to tokens.
	TokensPerChunk int
	// NProbe is the search depth used for the latency measurements.
	NProbe int
	// NList fixes the coarse cell count across the sweep (default 64).
	// Holding nlist constant makes per-query scan work exactly
	// proportional to the datastore size, which is the linear regime the
	// paper measures; letting nlist follow the 4*sqrt(n) build heuristic
	// would make the sweep sublinear by construction.
	NList int
	// Queries is the number of measured queries per size (default 16).
	Queries int
	// Repeats re-measures each size this many times and keeps the fastest
	// run, suppressing scheduler noise (default 3).
	Repeats int
	// Seed drives data generation.
	Seed int64
}

// Model is a calibrated size-to-cost model.
type Model struct {
	// Points are the measured observations.
	Points []Point
	// LatencyFit maps tokens to seconds per query.
	LatencyFit LinearFit
	// MemoryFit maps tokens to bytes.
	MemoryFit LinearFit
}

// Calibrate measures IVF-SQ8 indexes over the sweep and fits linear
// latency/memory models in datastore tokens.
func Calibrate(cfg SweepConfig, gen func(n, dim int, seed int64) *vec.Matrix) (*Model, error) {
	if len(cfg.Sizes) < 2 {
		return nil, fmt.Errorf("scaling: need at least 2 sweep sizes")
	}
	if cfg.TokensPerChunk <= 0 {
		cfg.TokensPerChunk = 64
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 16
	}
	if cfg.NProbe <= 0 {
		cfg.NProbe = 32
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	if cfg.NList <= 0 {
		cfg.NList = 64
	}
	// Build every index first, then time the sizes round-robin: each
	// repeat visits every size once, so a slow spell of the host (a
	// neighbour's burst, a core shared with a busy sibling) lands on one
	// repeat of several sizes instead of on every repeat of one size, and
	// the fastest-repeat rule discards it.
	indexes := make([]*ivf.Index, len(cfg.Sizes))
	for si, n := range cfg.Sizes {
		data := gen(n, cfg.Dim, cfg.Seed)
		ix, err := ivf.New(ivf.Config{Dim: cfg.Dim, NList: cfg.NList, Quantizer: quant.NewSQ(cfg.Dim, 8), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		if err := ix.Train(data); err != nil {
			return nil, err
		}
		if err := ix.AddBatch(0, data); err != nil {
			return nil, err
		}
		indexes[si] = ix
	}
	queries := gen(cfg.Queries, cfg.Dim, cfg.Seed+1)
	scanned := make([]int, len(indexes))
	best := make([]time.Duration, len(indexes))
	for rep := 0; rep < cfg.Repeats; rep++ {
		for si, ix := range indexes {
			scanned[si] = 0
			start := now()
			for i := 0; i < queries.Len(); i++ {
				_, st := ix.SearchWithStats(queries.Row(i), 10, cfg.NProbe)
				scanned[si] += st.VectorsScanned
			}
			if elapsed := now().Sub(start); rep == 0 || elapsed < best[si] {
				best[si] = elapsed
			}
		}
	}
	m := &Model{}
	for si, n := range cfg.Sizes {
		m.Points = append(m.Points, Point{
			Tokens:          int64(n) * int64(cfg.TokensPerChunk),
			LatencyPerQuery: best[si] / time.Duration(queries.Len()),
			MemoryBytes:     indexes[si].MemoryBytes(),
			VectorsScanned:  float64(scanned[si]) / float64(queries.Len()),
			Measured:        true,
		})
	}
	xs := make([]float64, len(m.Points))
	latencies := make([]float64, len(m.Points))
	mems := make([]float64, len(m.Points))
	for i, p := range m.Points {
		xs[i] = float64(p.Tokens)
		latencies[i] = p.LatencyPerQuery.Seconds()
		mems[i] = float64(p.MemoryBytes)
	}
	m.LatencyFit = Fit(xs, latencies)
	m.MemoryFit = Fit(xs, mems)
	return m, nil
}

// Extrapolate predicts a Point at an arbitrary token count; Measured is
// false and VectorsScanned is left zero.
func (m *Model) Extrapolate(tokens int64) Point {
	latSec := m.LatencyFit.At(float64(tokens))
	if latSec < 0 {
		latSec = 0
	}
	mem := m.MemoryFit.At(float64(tokens))
	if mem < 0 {
		mem = 0
	}
	return Point{
		Tokens:          tokens,
		LatencyPerQuery: time.Duration(latSec * float64(time.Second)),
		MemoryBytes:     int64(mem),
		Measured:        false,
	}
}

// IsLinear reports whether both fits explain the sweep well (R^2 above the
// threshold), i.e. whether the paper's linear-scaling claim holds for the
// measured implementation.
func (m *Model) IsLinear(r2Threshold float64) bool {
	return m.LatencyFit.R2 >= r2Threshold && m.MemoryFit.R2 >= r2Threshold
}

// BytesPerToken returns the marginal index bytes per datastore token, the
// slope behind Figure 7's memory panel (~10 TB per trillion tokens for
// IVF-SQ8 at dim 768).
func (m *Model) BytesPerToken() float64 { return m.MemoryFit.Slope }
