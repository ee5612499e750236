package kmeans

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/vec"
)

// lloydReference is Train with every assignment pass a full one: each row
// takes ArgMinL2 over all centroids, sequentially. It is the oracle the
// bound-pruned passes must match bit for bit. It also reports how many
// empty clusters it reseeded, so a fixture can show it exercises the jump.
func lloydReference(data *vec.Matrix, cfg Config) (*Result, int) {
	cfg = cfg.withDefaults()
	rng := cfg.rng()
	train := data
	if cfg.SampleSize > 0 && cfg.SampleSize < data.Len() {
		train = sampleRows(data, cfg.SampleSize, rng)
	}
	nt := train.Len()
	centroids := initCentroids(train, cfg.K, cfg.PlusPlus, rng)
	assign := make([]int, nt)
	dist := make([]float32, nt)
	sizes := make([]int, cfg.K)
	sums := vec.NewMatrix(cfg.K, train.Dim)
	pass := func() float64 {
		clear(sizes)
		var inertia float64
		for i := 0; i < nt; i++ {
			assign[i], dist[i] = centroids.ArgMinL2(train.Row(i))
			sizes[assign[i]]++
			inertia += float64(dist[i])
		}
		return inertia
	}
	prevInertia := math.Inf(1)
	iters, reseeds := 0, 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters = iter + 1
		inertia := pass()
		clear(sums.Data())
		for i := 0; i < nt; i++ {
			vec.Add(sums.Row(assign[i]), train.Row(i))
		}
		for c := 0; c < cfg.K; c++ {
			if sizes[c] == 0 {
				reseedEmpty(centroids, c, train, assign, rng)
				reseeds++
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
	inertia := pass()
	return &Result{Centroids: centroids, Assign: assign, Sizes: sizes, Inertia: inertia, Iters: iters}, reseeds
}

// sameAsReference reports the first difference between got and want in
// centroid bits, Assign, Sizes, Inertia bits or Iters, or "".
func sameAsReference(got, want *Result) string {
	if got.Iters != want.Iters {
		return fmt.Sprintf("iters %d, reference %d", got.Iters, want.Iters)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return fmt.Sprintf("inertia %v, reference %v", got.Inertia, want.Inertia)
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			return fmt.Sprintf("size of cluster %d is %d, reference %d", c, got.Sizes[c], want.Sizes[c])
		}
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Sprintf("row %d assigned %d, reference %d", i, got.Assign[i], want.Assign[i])
		}
	}
	g, w := got.Centroids.Data(), want.Centroids.Data()
	for j := range w {
		if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
			return fmt.Sprintf("centroid value %d is %v, reference %v", j, g[j], w[j])
		}
	}
	return ""
}

// gaussian returns n rows of dim coordinates: k blob centers drawn
// uniformly from [0, 4)^dim, each row a center plus N(0, 1) noise, all
// multiplied by scale.
func gaussian(n, k, dim int, scale float64, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = 4 * rng.Float64()
		}
	}
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row, ctr := m.Row(i), centers[rng.Intn(k)]
		for d := range row {
			row[d] = float32((ctr[d] + rng.NormFloat64()) * scale)
		}
	}
	return m
}

// grid returns n rows with integer coordinates in [0, levels): squared
// distances are small exact integers, so many rows tie between centroids,
// and with n well above levels^dim many rows repeat.
func grid(n, dim, levels int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for j := range m.Data() {
		m.Data()[j] = float32(rng.Intn(levels))
	}
	return m
}

func TestPrunedLloydMatchesFullPass(t *testing.T) {
	type tcase struct {
		name       string
		data       *vec.Matrix
		cfg        Config
		wantReseed bool // the fixture must make the reference reseed a cluster
	}
	cases := []tcase{
		// Ties everywhere; random init picks duplicate rows as centroids,
		// so the higher-numbered twin loses every tie, empties and jumps.
		{"grid_ties_dup_centroids", grid(600, 3, 3, 1), Config{K: 20, Seed: 2, MaxIters: 30}, true},
		{"grid_ties_plusplus", grid(700, 4, 2, 3), Config{K: 9, Seed: 4, PlusPlus: true}, false},
		{"grid_dim1", grid(500, 1, 12, 5), Config{K: 12, Seed: 6, MaxIters: 40}, true},
		{"k1", gaussian(300, 3, 5, 1, 7), Config{K: 1, Seed: 8}, false},
		{"k_equals_n", gaussian(40, 4, 3, 1, 9), Config{K: 40, Seed: 10, PlusPlus: true}, false},
		{"k_equals_n_dups", grid(30, 2, 3, 11), Config{K: 30, Seed: 12}, true},
		{"sample_size", gaussian(900, 6, 7, 1, 13), Config{K: 8, Seed: 14, PlusPlus: true, SampleSize: 350}, false},
		{"tiny_coordinates", gaussian(600, 5, 5, 1e-15, 15), Config{K: 7, Seed: 16, PlusPlus: true}, false},
		{"huge_coordinates", gaussian(600, 5, 3, 1e15, 17), Config{K: 7, Seed: 18, PlusPlus: true}, false},
	}
	for _, dim := range []int{1, 3, 5, 7, 256} {
		cases = append(cases, tcase{fmt.Sprintf("dim%d", dim), gaussian(560, 6, dim, 1, int64(dim)), Config{K: 11, Seed: int64(dim), PlusPlus: true}, false})
	}
	for _, tc := range cases {
		want, reseeds := lloydReference(tc.data, tc.cfg)
		if tc.wantReseed && reseeds == 0 {
			t.Fatalf("%s: the reference reseeded no cluster; the fixture no longer exercises a jump", tc.name)
		}
		forProcs(t, func(procs int) {
			got, err := Train(tc.data, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.evals == 0 {
				t.Fatalf("%s: Train kept the full passes", tc.name)
			}
			if diff := sameAsReference(got, want); diff != "" {
				t.Fatalf("%s at GOMAXPROCS %d: %s", tc.name, procs, diff)
			}
		})
	}
}

// TestFullPassFallbackMatchesReference: data holding a NaN or an infinity
// keeps the full passes, and they must still give the reference's bits.
func TestFullPassFallbackMatchesReference(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		data := gaussian(300, 3, 4, 1, 21)
		data.Row(17)[2] = bad
		cfg := Config{K: 5, Seed: 22, PlusPlus: true}
		want, _ := lloydReference(data, cfg)
		got, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.evals != 0 {
			t.Fatalf("%v in the data: Train pruned", bad)
		}
		if diff := sameAsReference(got, want); diff != "" {
			t.Fatalf("%v in the data: %s", bad, diff)
		}
	}
}

// TestPruningWork keeps the pruning on: at the scan_bound shard shape (a
// 16-topic corpus, 256 dims, K = 4·√n cells) the assignment passes,
// the first full one included, must evaluate under 40% of the n·K
// distances per pass that full passes would. They evaluated 31% when the
// bounds were written; full passes evaluate 100%.
func TestPruningWork(t *testing.T) {
	c, err := corpus.Generate(corpus.Spec{NumChunks: 3000, Dim: 256, NumTopics: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const k = 220 // ivf.DefaultNList(3000)
	res, err := Train(c.Vectors, Config{K: k, Seed: 1, PlusPlus: true, MaxIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	full := int64(c.Vectors.Len()) * k * int64(res.Iters+1)
	frac := float64(res.evals) / float64(full)
	t.Logf("%d passes evaluated %d of %d distances (%.1f%%)", res.Iters+1, res.evals, full, 100*frac)
	if frac >= 0.40 {
		t.Fatalf("assignment passes evaluated %.1f%% of n·K·passes distances, want under 40%%", 100*frac)
	}
}

// FuzzTrainMatchesLloyd trains on small matrices built from the fuzzer's
// bytes, each byte one coordinate on an integer grid scaled by 2^exp, and
// requires the pruned Train to equal the full-pass reference. The seed
// inputs in testdata/fuzz cover ties, K = n, and squares that overflow to
// +Inf or underflow to 0.
func FuzzTrainMatchesLloyd(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, k, dim uint8, exp int8, seed int64, plusPlus bool) {
		d := 1 + int(dim)%9
		n := min(len(raw)/d, 400)
		if n == 0 {
			return
		}
		scale := float32(math.Ldexp(1, int(exp)%100))
		data := vec.NewMatrix(n, d)
		for j := range data.Data() {
			data.Data()[j] = float32(int8(raw[j])) * scale
		}
		cfg := Config{K: 1 + int(k)%n, Seed: seed, PlusPlus: plusPlus}
		want, _ := lloydReference(data, cfg)
		got, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameAsReference(got, want); diff != "" {
			t.Fatalf("n %d dim %d K %d: %s", n, d, cfg.K, diff)
		}
	})
}

// exactSquared returns ‖a − b‖² in exact arithmetic.
func exactSquared(a, b []float32) *big.Float {
	sum := new(big.Float).SetPrec(2048)
	for d := range a {
		diff := new(big.Float).SetPrec(2048).Sub(big.NewFloat(float64(a[d])), big.NewFloat(float64(b[d])))
		sum.Add(sum, diff.Mul(diff, diff))
	}
	return sum
}

func squareOf(x float64) *big.Float {
	f := new(big.Float).SetPrec(2048).SetFloat64(x)
	return f.Mul(f, f)
}

// TestBoundsEncloseExactDistance checks the rounding margins directly, where
// a Train rarely meets them: for vectors at many scales and dimensions,
// including differences whose squares underflow, lowerOf and upper of the
// kernel distance must enclose the exact distance, and lowered must not
// round above the exact difference.
func TestBoundsEncloseExactDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var out [1]float32
	for _, dim := range []int{1, 3, 5, 7, 16, 256} {
		e := newElkan(vec.NewMatrix(1, dim), 1)
		for _, scale := range []float64{1e-30, 1e-15, 1, 1e15} {
			for trial := 0; trial < 200; trial++ {
				a, b := make([]float32, dim), make([]float32, dim)
				for d := range a {
					a[d] = float32(rng.NormFloat64() * scale)
					if trial%2 == 0 {
						b[d] = float32(rng.NormFloat64() * scale)
					} else {
						// A few ulps apart: tiny differences, underflow
						// at the small scales.
						b[d] = math.Float32frombits(math.Float32bits(a[d]) + uint32(rng.Intn(5)))
					}
				}
				vec.L2SquaredBatch(a, b, 1, out[:])
				exact := exactSquared(a, b)
				if lo := e.lowerOf(out[0]); squareOf(float64(lo)).Cmp(exact) > 0 {
					t.Fatalf("dim %d scale %g: lowerOf(%g) = %g above the exact distance %s", dim, scale, out[0], lo, exact.Text('g', 10))
				}
				if up := e.upper(out[0]); squareOf(up).Cmp(exact) < 0 {
					t.Fatalf("dim %d scale %g: upper(%g) = %g below the exact distance %s", dim, scale, out[0], up, exact.Text('g', 10))
				}
			}
		}
	}
	for trial := 0; trial < 10000; trial++ {
		l := float32(rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		drift := float64(l) * rng.Float64()
		got := lowered(l, drift)
		exact := new(big.Float).SetPrec(2048).Sub(big.NewFloat(float64(l)), big.NewFloat(drift))
		if big.NewFloat(float64(got)).Cmp(exact) > 0 {
			t.Fatalf("lowered(%g, %g) = %g, above the exact %s", l, drift, got, exact.Text('g', 20))
		}
	}
}
