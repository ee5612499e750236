// Package kmeans implements Lloyd's algorithm with k-means++ seeding, the
// clustering primitive behind both IVF coarse quantizers and Hermes'
// datastore disaggregation step.
//
// Two features come directly from the paper's Section 4.1: training on a
// small random subset of the corpus (1-2% tracks the full clustering well)
// and sweeping several RNG seeds to pick the run with the lowest cluster-size
// imbalance, measured as the ratio of the largest to smallest cluster.
//
// Every Lloyd assignment pass after the first is bound-pruned (Elkan's
// triangle-inequality bounds, elkan.go): it skips the distances its bounds
// prove cannot change a row's nearest centroid, with margins for the
// kernel's rounding, so the clustering is bit for bit the one full passes
// give, at any GOMAXPROCS. Training sets above maxBounds rows × K, or with a
// NaN or infinity, keep the full passes.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// Config controls a k-means run.
type Config struct {
	K          int   // number of clusters; must be >= 1
	MaxIters   int   // Lloyd iterations; default 25
	Seed       int64 // RNG seed for init and subset sampling; default 0
	PlusPlus   bool  // k-means++ init (otherwise uniform random points)
	SampleSize int   // if >0 and < n, train on that many sampled points
	Tolerance  float64
	// Rand, when non-nil, supplies the generator directly and Seed is
	// ignored. The default is rand.New(rand.NewSource(Seed)), so two runs
	// with equal configs are bit-identical. BestSeed ignores Rand: its
	// whole point is sweeping Seed.
	Rand *rand.Rand `json:"-"`
}

// rng returns the injected generator or a deterministic one from Seed.
func (c Config) rng() *rand.Rand {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.New(rand.NewSource(c.Seed))
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 25
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-4
	}
	return c
}

// Result holds a trained clustering.
type Result struct {
	Centroids *vec.Matrix // K x dim
	// Assign maps each training row to its centroid; only filled for the
	// rows that were actually used for training (the subset when
	// SampleSize is set).
	Assign []int
	// Sizes is the per-cluster count over the training rows.
	Sizes []int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int

	// evals counts the row-to-centroid distances the bound-pruned
	// assignment passes evaluated; 0 when Train kept the full passes.
	evals int64
}

// Imbalance returns max(size)/min(size) over non-empty accounting of all
// clusters; if any cluster is empty it returns +Inf. This is the imbalance
// proxy the paper uses when choosing a seed.
func (r *Result) Imbalance() float64 {
	return ImbalanceRatio(r.Sizes)
}

// ImbalanceRatio computes max/min over the sizes; empty input or any zero
// size yields +Inf.
func ImbalanceRatio(sizes []int) float64 {
	if len(sizes) == 0 {
		return math.Inf(1)
	}
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes[1:] {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if minS == 0 {
		return math.Inf(1)
	}
	return float64(maxS) / float64(minS)
}

// Train runs k-means on the rows of data.
func Train(data *vec.Matrix, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := data.Len()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points < K=%d", n, cfg.K)
	}
	rng := cfg.rng()

	train := data
	if cfg.SampleSize > 0 && cfg.SampleSize < n {
		if cfg.SampleSize < cfg.K {
			return nil, fmt.Errorf("kmeans: SampleSize %d < K=%d", cfg.SampleSize, cfg.K)
		}
		train = sampleRows(data, cfg.SampleSize, rng)
	}
	nt := train.Len()

	centroids := initCentroids(train, cfg.K, cfg.PlusPlus, rng)
	assign := make([]int, nt)
	dist := make([]float32, nt)
	sizes := make([]int, cfg.K)
	sums := vec.NewMatrix(cfg.K, train.Dim)
	prevInertia := math.Inf(1)
	var inertia float64
	iters := 0
	bounds := newElkan(train, cfg.K)
	assignPass := func() float64 {
		if bounds == nil {
			return assignRows(train, centroids, assign, dist, sizes)
		}
		bounds.assign(train, centroids, assign, dist)
		return countRows(assign, dist, sizes)
	}

	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters = iter + 1
		// Assignment step.
		inertia = assignPass()
		// Update step.
		clear(sums.Data())
		for i := 0; i < nt; i++ {
			vec.Add(sums.Row(assign[i]), train.Row(i))
		}
		for c := 0; c < cfg.K; c++ {
			if sizes[c] == 0 {
				// Empty-cluster repair: reseed from the point
				// farthest from its centroid.
				reseedEmpty(centroids, c, train, assign, rng)
				continue
			}
			row := sums.Row(c)
			vec.Scale(row, 1/float32(sizes[c]))
			copy(centroids.Row(c), row)
		}
		if prevInertia-inertia < cfg.Tolerance*math.Max(1, prevInertia) {
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the final centroids so Assign/Sizes/Inertia
	// are mutually consistent.
	inertia = assignPass()

	res := &Result{
		Centroids: centroids,
		Assign:    assign,
		Sizes:     sizes,
		Inertia:   inertia,
		Iters:     iters,
	}
	if bounds != nil {
		res.evals = bounds.evals.Load()
	}
	return res, nil
}

// AssignAll maps every row of data to its nearest centroid. Used after
// subset training to partition the full corpus.
func AssignAll(data *vec.Matrix, centroids *vec.Matrix) []int {
	out := make([]int, data.Len())
	forChunks(data.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], _ = centroids.ArgMinL2(data.Row(i))
		}
	})
	return out
}

// assignRows sets assign[i] and dist[i] to row i's nearest centroid and its
// distance, over row chunks in parallel, then recounts sizes and returns the
// inertia. The sums run sequentially in row order, so every bit is the same
// at any GOMAXPROCS.
func assignRows(data, centroids *vec.Matrix, assign []int, dist []float32, sizes []int) float64 {
	forChunks(data.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			assign[i], dist[i] = centroids.ArgMinL2(data.Row(i))
		}
	})
	return countRows(assign, dist, sizes)
}

// countRows recounts sizes from assign and returns the inertia, summed
// sequentially in row order.
func countRows(assign []int, dist []float32, sizes []int) float64 {
	clear(sizes)
	var inertia float64
	for i, c := range assign {
		sizes[c]++
		inertia += float64(dist[i])
	}
	return inertia
}

// minChunkRows is the fewest rows forChunks hands one goroutine: even a
// cheap row (4 centroids of 32 dimensions) then gives it tens of
// microseconds of work, and an input of at most this many rows runs inline.
const minChunkRows = 256

// forChunks calls fn on contiguous ranges [lo, hi) that cover [0, n), one
// goroutine per range and at most GOMAXPROCS ranges, and returns when all
// are done. fn must write only to its own rows.
func forChunks(n int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), (n+minChunkRows-1)/minChunkRows)
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(c*n/w, (c+1)*n/w)
	}
	wg.Wait()
}

// forEach calls fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines, each taking the next unclaimed index, and returns when all
// calls are done.
func forEach(n int, fn func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// BestSeed runs k-means with each of the given seeds and returns the result
// (and winning seed) with the lowest cluster-size imbalance, breaking ties by
// inertia and then by seed order. This reproduces the paper's multi-seed
// imbalance minimization. The seeds run concurrently, at most GOMAXPROCS at
// a time; if any fails, the error of the first failing seed in seeds is
// returned.
func BestSeed(data *vec.Matrix, cfg Config, seeds []int64) (*Result, int64, error) {
	if len(seeds) == 0 {
		return nil, 0, fmt.Errorf("kmeans: BestSeed requires at least one seed")
	}
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	forEach(len(seeds), func(i int) {
		c := cfg
		c.Seed = seeds[i]
		c.Rand = nil // the sweep must re-derive the RNG from each seed
		results[i], errs[i] = Train(data, c)
	})
	var best *Result
	var bestSeed int64
	for i, r := range results {
		if errs[i] != nil {
			return nil, 0, fmt.Errorf("kmeans: seed %d: %w", seeds[i], errs[i])
		}
		if best == nil || less(r, best) {
			best, bestSeed = r, seeds[i]
		}
	}
	return best, bestSeed, nil
}

func less(a, b *Result) bool {
	ia, ib := a.Imbalance(), b.Imbalance()
	if ia != ib {
		return ia < ib
	}
	return a.Inertia < b.Inertia
}

func sampleRows(data *vec.Matrix, k int, rng *rand.Rand) *vec.Matrix {
	idx := rng.Perm(data.Len())[:k]
	out := vec.NewMatrix(k, data.Dim)
	for i, j := range idx {
		copy(out.Row(i), data.Row(j))
	}
	return out
}

func initCentroids(data *vec.Matrix, k int, plusPlus bool, rng *rand.Rand) *vec.Matrix {
	n := data.Len()
	centroids := vec.NewMatrix(k, data.Dim)
	if !plusPlus {
		for i, j := range rng.Perm(n)[:k] {
			copy(centroids.Row(i), data.Row(j))
		}
		return centroids
	}
	// k-means++: first centroid uniform, then points weighted by squared
	// distance to the nearest chosen centroid.
	copy(centroids.Row(0), data.Row(rng.Intn(n)))
	dists := make([]float64, n)
	toNew := make([]float32, n) // every point's distance to the newest centroid
	// refresh lowers each point's distance to the nearest chosen centroid
	// with its distance to centroid c, over row chunks in parallel.
	refresh := func(c int) {
		forChunks(n, func(lo, hi int) {
			vec.L2SquaredBatch(centroids.Row(c), data.Data()[lo*data.Dim:], hi-lo, toNew[lo:hi])
			for i := lo; i < hi; i++ {
				if d := float64(toNew[i]); c == 0 || d < dists[i] {
					dists[i] = d
				}
			}
		})
	}
	refresh(0)
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range dists {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			pick = n - 1
			for i, d := range dists {
				cum += d
				if cum >= target {
					pick = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(pick))
		refresh(c)
	}
	return centroids
}

func reseedEmpty(centroids *vec.Matrix, c int, data *vec.Matrix, assign []int, rng *rand.Rand) {
	// Pick the training point farthest from its current centroid.
	// Centroids below c already hold this iteration's means, so the distances
	// cannot be reused from the assignment step; each point is a one-row batch
	// against its own centroid.
	worst, worstDist := rng.Intn(data.Len()), float32(-1)
	var d [1]float32
	for i := 0; i < data.Len(); i++ {
		vec.L2SquaredBatch(data.Row(i), centroids.Row(assign[i]), 1, d[:])
		if d[0] > worstDist {
			worst, worstDist = i, d[0]
		}
	}
	copy(centroids.Row(c), data.Row(worst))
}
