package ivf

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flatindex"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/vec"
)

func gaussianData(n, dim int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			m.Row(i)[d] = float32(rng.NormFloat64())
		}
	}
	return m
}

func buildIndex(t testing.TB, data *vec.Matrix, cfg Config) *Index {
	t.Helper()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Train(data); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddBatch(0, data); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestDefaultNList(t *testing.T) {
	cases := []struct{ n, wantAtLeast, wantAtMost int }{
		{0, 1, 1},
		{1, 1, 1},
		{100, 40, 41},
		{10000, 400, 401},
	}
	for _, c := range cases {
		got := DefaultNList(c.n)
		if got < c.wantAtLeast || got > c.wantAtMost {
			t.Fatalf("DefaultNList(%d) = %d, want in [%d,%d]", c.n, got, c.wantAtLeast, c.wantAtMost)
		}
	}
	// nlist never exceeds n.
	if DefaultNList(5) > 5 {
		t.Fatal("DefaultNList must be <= n")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("Dim=0 should error")
	}
	if _, err := New(Config{Dim: 8, Quantizer: quant.NewFlat(4)}); err == nil {
		t.Fatal("quantizer dim mismatch should error")
	}
}

func TestLifecycleErrors(t *testing.T) {
	ix, err := New(Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, []float32{1, 2, 3, 4}); err == nil {
		t.Fatal("Add before Train should error")
	}
	if err := ix.Train(nil); err == nil {
		t.Fatal("Train(nil) should error")
	}
	if err := ix.Train(gaussianData(10, 3, 1)); err == nil {
		t.Fatal("Train with wrong dim should error")
	}
	if res := ix.Search([]float32{1, 2, 3, 4}, 5, 1); res != nil {
		t.Fatal("Search before Train should return nil")
	}
}

func TestFullProbeIsExact(t *testing.T) {
	// With nProbe == NList and a Flat quantizer, IVF must return exactly
	// the brute-force results.
	data := gaussianData(400, 8, 2)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 10, Seed: 1})
	ref := flatindex.New(8)
	ref.AddBatch(0, data)

	queries := gaussianData(20, 8, 3)
	for i := 0; i < queries.Len(); i++ {
		got := ix.Search(queries.Row(i), 5, ix.NList())
		want := ref.Search(queries.Row(i), 5)
		for j := range want {
			if got[j].ID != want[j].ID {
				t.Fatalf("query %d pos %d: ivf %d != flat %d", i, j, got[j].ID, want[j].ID)
			}
		}
	}
}

func TestRecallImprovesWithNProbe(t *testing.T) {
	data := gaussianData(2000, 16, 4)
	ix := buildIndex(t, data, Config{Dim: 16, NList: 40, Seed: 2})
	ref := flatindex.New(16)
	ref.AddBatch(0, data)

	queries := gaussianData(50, 16, 5)
	truth := ref.GroundTruth(queries, 10)

	recallAt := func(nProbe int) float64 {
		ids := make([][]int64, queries.Len())
		for i := range ids {
			for _, n := range ix.Search(queries.Row(i), 10, nProbe) {
				ids[i] = append(ids[i], n.ID)
			}
		}
		return metrics.MeanRecall(ids, truth, 10)
	}
	r1 := recallAt(1)
	r8 := recallAt(8)
	r40 := recallAt(40)
	if !(r1 <= r8 && r8 <= r40) {
		t.Fatalf("recall not monotone in nProbe: %v %v %v", r1, r8, r40)
	}
	if r40 < 0.999 {
		t.Fatalf("full probe recall = %v, want ~1", r40)
	}
	if r1 >= 1 {
		t.Fatalf("nProbe=1 recall = %v; expected approximation loss", r1)
	}
}

func TestSearchStats(t *testing.T) {
	data := gaussianData(500, 8, 6)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 10, Seed: 3})
	_, stats := ix.SearchWithStats(data.Row(0), 5, 3)
	if stats.CellsProbed != 3 {
		t.Fatalf("CellsProbed = %d, want 3", stats.CellsProbed)
	}
	if stats.VectorsScanned <= 0 || stats.VectorsScanned > 500 {
		t.Fatalf("VectorsScanned = %d out of range", stats.VectorsScanned)
	}
	_, full := ix.SearchWithStats(data.Row(0), 5, 10)
	if full.VectorsScanned != 500 {
		t.Fatalf("full probe scanned %d, want 500", full.VectorsScanned)
	}
}

func TestNProbeClamping(t *testing.T) {
	data := gaussianData(100, 4, 7)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 5, Seed: 1})
	// nProbe <= 0 becomes 1; nProbe > NList becomes NList.
	_, s0 := ix.SearchWithStats(data.Row(0), 3, 0)
	if s0.CellsProbed != 1 {
		t.Fatalf("nProbe=0 probed %d cells", s0.CellsProbed)
	}
	_, sBig := ix.SearchWithStats(data.Row(0), 3, 99)
	if sBig.CellsProbed != 5 {
		t.Fatalf("nProbe=99 probed %d cells, want 5", sBig.CellsProbed)
	}
}

func TestListSizesSumToCount(t *testing.T) {
	data := gaussianData(300, 6, 8)
	ix := buildIndex(t, data, Config{Dim: 6, NList: 8, Seed: 4})
	total := 0
	for _, s := range ix.ListSizes() {
		total += s
	}
	if total != 300 || ix.Len() != 300 {
		t.Fatalf("list sizes sum %d, Len %d, want 300", total, ix.Len())
	}
}

func TestSQ8IndexSmallerThanFlat(t *testing.T) {
	data := gaussianData(500, 32, 9)
	flat := buildIndex(t, data, Config{Dim: 32, NList: 10, Seed: 1})
	sq := buildIndex(t, data, Config{Dim: 32, NList: 10, Seed: 1, Quantizer: quant.NewSQ(32, 8)})
	if sq.MemoryBytes() >= flat.MemoryBytes() {
		t.Fatalf("SQ8 %d bytes should be < Flat %d bytes", sq.MemoryBytes(), flat.MemoryBytes())
	}
	// SQ8 codes are 1/4 the size of fp32; overall ratio dominated by codes.
	ratio := float64(flat.MemoryBytes()) / float64(sq.MemoryBytes())
	if ratio < 2 {
		t.Fatalf("compression ratio %v too small", ratio)
	}
}

func TestSQ8RecallCloseToFlat(t *testing.T) {
	data := gaussianData(1500, 16, 10)
	flat := buildIndex(t, data, Config{Dim: 16, NList: 20, Seed: 5})
	sq := buildIndex(t, data, Config{Dim: 16, NList: 20, Seed: 5, Quantizer: quant.NewSQ(16, 8)})
	ref := flatindex.New(16)
	ref.AddBatch(0, data)
	queries := gaussianData(40, 16, 11)
	truth := ref.GroundTruth(queries, 10)

	recallOf := func(ix *Index) float64 {
		ids := make([][]int64, queries.Len())
		for i := range ids {
			for _, n := range ix.Search(queries.Row(i), 10, 20) {
				ids[i] = append(ids[i], n.ID)
			}
		}
		return metrics.MeanRecall(ids, truth, 10)
	}
	rFlat, rSQ := recallOf(flat), recallOf(sq)
	if rFlat-rSQ > 0.05 {
		t.Fatalf("SQ8 recall %v too far below Flat recall %v", rSQ, rFlat)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	data := gaussianData(300, 8, 14)
	orig := buildIndex(t, data, Config{Dim: 8, NList: 8, Seed: 7, Quantizer: quant.NewSQ(8, 8)})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() || restored.NList() != orig.NList() {
		t.Fatalf("restored shape mismatch: %d/%d vs %d/%d", restored.Len(), restored.NList(), orig.Len(), orig.NList())
	}
	q := data.Row(42)
	a := orig.Search(q, 5, 8)
	b := restored.Search(q, 5, 8)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			t.Fatalf("restored search differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSerializeUntrainedFails(t *testing.T) {
	ix, _ := New(Config{Dim: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err == nil {
		t.Fatal("serializing untrained index should error")
	}
}

func TestSerializeFlatQuantizer(t *testing.T) {
	data := gaussianData(100, 4, 15)
	orig := buildIndex(t, data, Config{Dim: 4, NList: 4, Seed: 8})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.QuantizerName() != "Flat" {
		t.Fatalf("restored quantizer = %s", restored.QuantizerName())
	}
}

func BenchmarkIVFSearch(b *testing.B) {
	data := gaussianData(20000, 64, 1)
	ix, err := New(Config{Dim: 64, NList: 100, Seed: 1, Quantizer: quant.NewSQ(64, 8)})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Train(data); err != nil {
		b.Fatal(err)
	}
	if err := ix.AddBatch(0, data); err != nil {
		b.Fatal(err)
	}
	q := data.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Search(q, 10, 8)
	}
}

// TestSearchPhasedMatchesSearch checks a single query timed through the
// batch executor's *PhaseNanos argument: identical results and stats to
// SearchWithStats, per-phase nanosecond attribution that is nonnegative and
// nonzero in aggregate, and accumulation across batches timed into the same
// PhaseNanos.
func TestSearchPhasedMatchesSearch(t *testing.T) {
	data := gaussianData(600, 24, 9)
	ix := buildIndex(t, data, Config{Dim: 24, NList: 16})
	q := data.Row(7)

	plain, pStats := ix.SearchWithStats(q, 5, 4)
	s := ix.NewSearcher()
	var ph PhaseNanos
	s.SearchGroup([][]float32{q}, 5, 4, &ph)
	phased, fStats := s.AppendResults(0, nil), s.QueryStats(0)
	if len(phased) != len(plain) {
		t.Fatalf("phased returned %d neighbors, plain %d", len(phased), len(plain))
	}
	for i := range plain {
		if phased[i] != plain[i] {
			t.Errorf("neighbor %d: phased %+v != plain %+v", i, phased[i], plain[i])
		}
	}
	if fStats != pStats {
		t.Errorf("stats diverge: phased %+v, plain %+v", fStats, pStats)
	}
	if ph.Select < 0 || ph.Scan < 0 || ph.Merge < 0 {
		t.Errorf("negative phase attribution: %+v", ph)
	}
	if ph.Select+ph.Scan+ph.Merge <= 0 {
		t.Errorf("phases must attribute some time: %+v", ph)
	}

	first := ph
	s.SearchGroup([][]float32{q, q}, 5, 4, &ph)
	if ph.Select < first.Select || ph.Scan < first.Scan || ph.Merge < first.Merge || ph == first {
		t.Errorf("a second batch did not accumulate: %+v after %+v", ph, first)
	}
}

// TestSearchPhasedClockGating proves the untimed paths never read the
// clock: with the seam rigged to count, Search, SearchWithStats and a nil-ph
// batch stay clock-free while a batch given a *PhaseNanos reads it.
func TestSearchPhasedClockGating(t *testing.T) {
	data := gaussianData(300, 16, 10)
	ix := buildIndex(t, data, Config{Dim: 16, NList: 8})

	orig := now
	defer func() { now = orig }()
	calls := 0
	now = func() time.Time {
		calls++
		return time.Unix(int64(calls), 0)
	}

	if _, stats := ix.SearchWithStats(data.Row(0), 3, 2); stats.VectorsScanned == 0 {
		t.Fatal("plain search scanned nothing")
	}
	s := ix.NewSearcher()
	s.Search(nil, data.Row(1), 3, 2)
	s.SearchGroup([][]float32{data.Row(0), data.Row(1)}, 3, 2, nil)
	if calls != 0 {
		t.Fatalf("untraced search read the clock %d times; the hot path must stay clock-free", calls)
	}
	var ph PhaseNanos
	if s.SearchGroup([][]float32{data.Row(0)}, 3, 2, &ph); ph.Select+ph.Scan+ph.Merge <= 0 {
		t.Error("phased search with a ticking fake clock must attribute time")
	}
	if calls == 0 {
		t.Error("phased search must read the clock")
	}
}
