package kmeans

import (
	"math"
	"sync/atomic"

	"repro/internal/vec"
)

// Bound-pruned Lloyd assignment (Elkan, ICML 2003), exact to the bit.
//
// The first pass evaluates every row-to-centroid distance. Each later pass
// evaluates a row's distance to its own centroid, which dist and inertia need
// anyway, and then only the centroids that the bounds cannot prove strictly
// farther than the best one so far. A skipped centroid's kernel distance would
// have been strictly larger than an evaluated one's, so it could neither win
// nor tie: the pass returns exactly what ArgMinL2 over every centroid returns.
// DESIGN.md §17 derives the rounding margins below.

// maxBounds caps the lower-bound table at 2^24 float32 entries (64 MiB) per
// Train; a larger training set (rows × K) keeps the full passes. Up to
// GOMAXPROCS shards train at once, each holding its table. With the IVF
// default of 4·√n cells, a shard of n rows needs 4·n^1.5 entries: the cap
// admits shards up to about 26k rows (the mean shard of a 256k-vector,
// 10-shard build) and refuses the 185 MB table of a 512k-vector build's
// 51k-row shards.
const maxBounds = 1 << 24

// roundDown scales a non-negative float64 so that its float32 rounding does
// not exceed the unscaled value: (1-2^-23)(1+2^-53)(1+2^-24) < 1.
const roundDown = 1 - 0x1p-23

// minBound is the smallest lower bound kept; anything below it is stored as
// 0, so every stored bound is a normal float32 and roundDown applies.
const minBound = 0x1p-100

// elkan holds the bounds a Train carries from one assignment pass to the
// next. They are transient: Train drops them when it returns.
type elkan struct {
	k   int
	eta float64 // absolute error bound from underflowed products
	// 1/(1-gamma) and 1/(1+gamma), gamma the relative error bound of one
	// kernel distance.
	hiScale, loScale float64

	lower []float32   // lower[i*k+c] <= ‖row i − centroid c‖
	prev  *vec.Matrix // the centroids lower refers to
	drift []float64   // upper bound of each centroid's move since prev
	cc    []float32   // cc[b*k+c] <= ‖centroid b − centroid c‖
	half  []float64   // half of each centroid's cc to its nearest other

	passes int
	evals  atomic.Int64 // row-to-centroid kernel distances evaluated
}

// newElkan returns the bounds for a Train of n rows and k centroids, or nil
// when that Train must keep the full passes: the table would pass maxBounds,
// or the data holds a NaN or an infinity, where ArgMinL2's first-minimum rule
// depends on scan order and not only on the values.
func newElkan(data *vec.Matrix, k int) *elkan {
	n := data.Len()
	if n*k > maxBounds || !allFinite(data.Data()) {
		return nil
	}
	// Kernel error (§17): lane 0 sums the most terms, m0 = dim/4 + dim%4.
	// A term meets at most m0+5 roundings: the difference (twice, being
	// squared), the product, m0-1 lane additions and 3 reduce additions.
	// One more unit covers the float64 arithmetic of the bounds themselves.
	m0 := data.Dim/4 + data.Dim%4
	ku := float64(m0+6) * 0x1p-24
	gamma := ku / (1 - ku)
	return &elkan{
		k:       k,
		eta:     float64(data.Dim) * 0x1p-149,
		hiScale: 1 / (1 - gamma),
		loScale: 1 / (1 + gamma),
		lower:   make([]float32, n*k),
		prev:    vec.NewMatrix(k, data.Dim),
		drift:   make([]float64, k),
		cc:      make([]float32, k*k),
		half:    make([]float64, k),
	}
}

func allFinite(xs []float32) bool {
	for _, x := range xs {
		if x-x != 0 { // NaN for NaN and ±Inf
			return false
		}
	}
	return true
}

// upper returns a bound no smaller than the true distance whose kernel
// squared distance is d. NaN and +Inf stay NaN and +Inf, so no test against
// them prunes.
func (e *elkan) upper(d float32) float64 {
	return math.Sqrt((float64(d) + e.eta) * e.hiScale)
}

// lowerOf returns a float32 bound no larger than the true distance whose
// kernel squared distance is d; 0 when d is +Inf, NaN or tiny.
func (e *elkan) lowerOf(d float32) float32 {
	v := (float64(d) - e.eta) * e.loScale
	if !(v > minBound*minBound) || math.IsInf(v, 1) {
		return 0
	}
	return float32(math.Sqrt(v) * roundDown)
}

// lowered moves lower bound l down by an upper bound of its centroid's drift.
func lowered(l float32, drift float64) float32 {
	if drift == 0 {
		return l
	}
	v := float64(l) - drift
	if !(v > minBound) {
		return 0
	}
	return float32(v * roundDown)
}

// assign runs one assignment pass: assign[i] and dist[i] become row i's
// nearest centroid and kernel distance, exactly as ArgMinL2 gives them.
func (e *elkan) assign(data, centroids *vec.Matrix, assign []int, dist []float32) {
	if e.passes == 0 {
		e.fullPass(data, centroids, assign, dist)
	} else {
		e.moveCentroids(centroids)
		forChunks(data.Len(), func(lo, hi int) {
			var evals int64
			for i := lo; i < hi; i++ {
				evals += e.prunedRow(data.Row(i), centroids, i, assign, dist)
			}
			e.evals.Add(evals)
		})
	}
	copy(e.prev.Data(), centroids.Data())
	e.passes++
}

// fullPass evaluates every distance, keeping each as a lower bound.
func (e *elkan) fullPass(data, centroids *vec.Matrix, assign []int, dist []float32) {
	k := e.k
	forChunks(data.Len(), func(lo, hi int) {
		d := make([]float32, k)
		for i := lo; i < hi; i++ {
			vec.L2SquaredBatch(data.Row(i), centroids.Data(), k, d)
			best := 0
			for c, dc := range d {
				if dc < d[best] {
					best = c
				}
				e.lower[i*k+c] = e.lowerOf(dc)
			}
			assign[i], dist[i] = best, d[best]
		}
	})
	e.evals.Add(int64(data.Len() * k))
}

// moveCentroids measures how far each centroid moved since the last pass
// and refreshes the centroid-to-centroid bounds.
func (e *elkan) moveCentroids(centroids *vec.Matrix) {
	k := e.k
	var d [1]float32
	for c := 0; c < k; c++ {
		e.drift[c] = 0
		if !sameBits(e.prev.Row(c), centroids.Row(c)) {
			vec.L2SquaredBatch(e.prev.Row(c), centroids.Row(c), 1, d[:])
			e.drift[c] = e.upper(d[0])
		}
	}
	row := make([]float32, k)
	for b := 0; b < k; b++ {
		vec.L2SquaredBatch(centroids.Row(b), centroids.Data()[(b+1)*centroids.Dim:], k-b-1, row)
		for j, dj := range row[:k-b-1] {
			c := b + 1 + j
			l := e.lowerOf(dj)
			e.cc[b*k+c], e.cc[c*k+b] = l, l
		}
	}
	for b := 0; b < k; b++ {
		nearest := float32(math.Inf(1))
		for c, l := range e.cc[b*k : b*k+k] {
			if c != b && l < nearest {
				nearest = l
			}
		}
		e.half[b] = float64(nearest) / 2
	}
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// prunedRow assigns row i (x) and returns how many distances it evaluated.
// Centroid c is skipped only when one of its bounds exceeds t, the upper
// bound of the best centroid's true distance: by the triangle inequality c's
// true distance then exceeds t, so its kernel distance exceeds the best's.
func (e *elkan) prunedRow(x []float32, centroids *vec.Matrix, i int, assign []int, dist []float32) int64 {
	k := e.k
	lb := e.lower[i*k : i*k+k]
	for c, l := range lb {
		lb[c] = lowered(l, e.drift[c])
	}
	var d [1]float32
	best := assign[i]
	vec.L2SquaredBatch(x, centroids.Row(best), 1, d[:])
	bestD, t := d[0], e.upper(d[0])
	lb[best] = e.lowerOf(bestD)
	evals := int64(1)
	if !(e.half[best] > t) {
		own := best
		for c := 0; c < k; c++ {
			if c == own || float64(lb[c]) > t || float64(e.cc[best*k+c]) > 2*t {
				continue
			}
			vec.L2SquaredBatch(x, centroids.Row(c), 1, d[:])
			evals++
			lb[c] = e.lowerOf(d[0])
			if d[0] < bestD || (d[0] == bestD && c < best) {
				best, bestD, t = c, d[0], e.upper(d[0])
				if e.half[best] > t {
					break
				}
			}
		}
	}
	assign[i], dist[i] = best, bestD
	return evals
}
