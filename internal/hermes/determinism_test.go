package hermes

// Index construction must not depend on how many CPUs build it. The table
// below builds every kind of index the repository makes — the store with its
// default seed sweep, the four hermes-perf workload shapes scaled down, the
// naive split at each quantization, IVF indexes with residual encoding and
// with a training sample, and bare k-means runs — and hashes what each one
// produced: every shard's serialized bytes, the shard assignment and
// centroids, and the k-means centroids, assignment, sizes and inertia bits.
// TestBuildDeterminism requires the recorded hashes at GOMAXPROCS 1 to 4.
// The hashes were recorded while the build was sequential; regenerate them
// only for a change that alters index bytes on purpose, and say why:
//
//	go test ./internal/hermes -run TestBuildDeterminism -update-build-golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ivf"
	"repro/internal/kmeans"
	"repro/internal/quant"
	"repro/internal/vec"
)

var updateBuildGolden = flag.Bool("update-build-golden", false, "rewrite testdata/build_determinism.golden from this run")

const buildGolden = "testdata/build_determinism.golden"

// buildRow is one construction of the table; it returns its named hashes in
// a fixed order.
type buildRow struct {
	name string
	run  func(t *testing.T) []string
}

func detCorpus(t *testing.T, chunks, dim, topics int) *vec.Matrix {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{NumChunks: chunks, Dim: dim, NumTopics: topics, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return c.Vectors
}

// hashOf returns the hex SHA-256 of the little-endian encoding of each value.
func hashOf(vals ...any) string {
	h := sha256.New()
	for _, v := range vals {
		switch v := v.(type) {
		case []int:
			for _, x := range v {
				_ = binary.Write(h, binary.LittleEndian, int64(x))
			}
		default:
			_ = binary.Write(h, binary.LittleEndian, v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func indexHash(t *testing.T, ix *ivf.Index) string {
	t.Helper()
	var b bytes.Buffer
	if err := ix.Save(&b); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

func storeHashes(t *testing.T, st *Store, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := []string{fmt.Sprintf("store seed=%d assign=%s", st.SeedUsed, hashOf(st.Assign))}
	for s, sh := range st.Shards {
		out = append(out, fmt.Sprintf("shard_%d size=%d centroid=%s index=%s", s, sh.Size, hashOf(sh.Centroid), indexHash(t, sh.Index)))
	}
	return out
}

func kmeansHash(r *kmeans.Result) string {
	return fmt.Sprintf("iters=%d inertia=%016x sizes=%v centroids=%s assign=%s",
		r.Iters, math.Float64bits(r.Inertia), r.Sizes, hashOf(r.Centroids.Data()), hashOf(r.Assign))
}

func ivfRow(cfg ivf.Config, data *vec.Matrix) func(t *testing.T) []string {
	return func(t *testing.T) []string {
		ix, err := ivf.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Train(data); err != nil {
			t.Fatal(err)
		}
		if err := ix.AddBatch(0, data); err != nil {
			t.Fatal(err)
		}
		return []string{"index=" + indexHash(t, ix)}
	}
}

func buildTable(t *testing.T) []buildRow {
	// The workload shapes of cmd/hermes-perf at a quarter of their rows.
	shape := func(chunks, dim, topics, shards int) func(t *testing.T) []string {
		return func(t *testing.T) []string {
			st, err := Build(detCorpus(t, chunks, dim, topics), BuildOptions{NumShards: shards, Seeds: []int64{1}, QuantBits: 8})
			return storeHashes(t, st, err)
		}
	}
	naive := func(bits int) func(t *testing.T) []string {
		return func(t *testing.T) []string {
			st, err := BuildNaiveSplit(detCorpus(t, 1200, 24, 8), 4, bits)
			return storeHashes(t, st, err)
		}
	}
	return []buildRow{
		{"build_default_seeds", func(t *testing.T) []string {
			st, err := Build(detCorpus(t, 1600, 24, 8), BuildOptions{NumShards: 4})
			return storeHashes(t, st, err)
		}},
		{"wire_bound", shape(2000, 32, 16, 10)},
		{"scan_bound", shape(3000, 256, 16, 4)},
		{"batched_open", shape(4000, 64, 4, 4)},
		{"read_write_mix", shape(4000, 64, 16, 4)},
		{"naive_split_q0", naive(0)},
		{"naive_split_q4", naive(4)},
		{"naive_split_q8", naive(8)},
		{"ivf_by_residual", ivfRow(ivf.Config{Dim: 16, NList: 24, Seed: 4, ByResidual: true, Quantizer: quant.NewSQ(16, 8)}, detCorpus(t, 1500, 16, 8))},
		{"ivf_train_sample", ivfRow(ivf.Config{Dim: 16, Seed: 6, TrainSample: 700, Quantizer: quant.NewSQ(16, 8)}, detCorpus(t, 1500, 16, 8))},
		{"kmeans_train", func(t *testing.T) []string {
			r, err := kmeans.Train(detCorpus(t, 1300, 20, 12), kmeans.Config{K: 16, PlusPlus: true, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return []string{kmeansHash(r)}
		}},
		{"kmeans_best_seed", func(t *testing.T) []string {
			r, seed, err := kmeans.BestSeed(detCorpus(t, 1300, 20, 12), kmeans.Config{K: 6, PlusPlus: true, SampleSize: 600}, []int64{3, 1, 4, 1, 5, 9})
			if err != nil {
				t.Fatal(err)
			}
			return []string{fmt.Sprintf("seed=%d %s", seed, kmeansHash(r))}
		}},
	}
}

func runBuildTable(t *testing.T) string {
	var b strings.Builder
	for _, row := range buildTable(t) {
		for _, line := range row.run(t) {
			fmt.Fprintf(&b, "%s %s\n", row.name, line)
		}
	}
	return b.String()
}

// TestBuildDeterminism builds the table at GOMAXPROCS 1, 2, 3 and 4 and
// requires every hash to equal the golden's. The hashes hold on amd64 only:
// there the distance kernel is the assembly one, whose bits per row are fixed
// by contract, and the compiler does not fuse multiply-adds.
func TestBuildDeterminism(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden hashes are amd64 float bits")
	}
	if *updateBuildGolden {
		if err := os.WriteFile(buildGolden, []byte(runBuildTable(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(buildGolden))
	if err != nil {
		t.Fatalf("%v (regenerate with -update-build-golden)", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		got := runBuildTable(t)
		if got == string(want) {
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("GOMAXPROCS %d: build output moved at line %d:\n got  %s\n want %s", procs, i+1, gl, wl)
			}
		}
	}
}

// TestBuildReturnsLowestFailingShard leaves shards 1 and 3 of five empty:
// however the shards are scheduled, the error must be shard 1's and no
// Store may be returned.
func TestBuildReturnsLowestFailingShard(t *testing.T) {
	data := detCorpus(t, 600, 8, 4)
	assign := make([]int, data.Len())
	for i := range assign {
		assign[i] = []int{0, 2, 4}[i%3]
	}
	centroids := vec.NewMatrix(5, data.Dim)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		st, err := buildFromAssignmentQuant(data, assign, centroids, 0, 8, 0)
		if st != nil || err == nil || !strings.Contains(err.Error(), "shard 1 is empty") {
			t.Fatalf("GOMAXPROCS %d: got store %v, error %v; want shard 1's error", procs, st != nil, err)
		}
	}
}
