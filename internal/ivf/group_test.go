package ivf

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vec"
)

// searchGroup runs qs as one batch on a fresh Searcher and collects every
// query's answer and ledger entry.
func searchGroup(ix *Index, qs [][]float32, k, nProbe int, ph *PhaseNanos) ([][]vec.Neighbor, GroupStats, []CostStats) {
	s := ix.NewSearcher()
	stats := s.SearchGroup(qs, k, nProbe, ph)
	out := make([][]vec.Neighbor, len(qs))
	costs := make([]CostStats, len(qs))
	for i := range qs {
		out[i], costs[i] = s.AppendResults(i, nil), s.CostStats(i)
	}
	return out, stats, costs
}

// TestSearchGroupTombstones exercises the grouped dead-position cursor:
// removals scattered across block boundaries must be skipped for every query
// in a group exactly as the sequential cursor skips them.
func TestSearchGroupTombstones(t *testing.T) {
	data := gaussianData(900, 8, 81)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 3, Seed: 9})
	removed := map[int64]bool{}
	for id := int64(0); id < 900; id += 7 {
		if ix.Remove(id) {
			removed[id] = true
		}
	}
	qs := make([][]float32, 6)
	for i := range qs {
		qs[i] = data.Row(i * 13)
	}
	got, stats, _ := searchGroup(ix, qs, 20, ix.NList(), nil)
	// All queries probe all 3 cells, so the shared stream covers each live
	// vector exactly once.
	if stats.VectorsScanned != ix.Len() {
		t.Fatalf("streamed %d, want %d live", stats.VectorsScanned, ix.Len())
	}
	if want := (len(qs) - 1) * ix.NList(); stats.SharedCellScans != want {
		t.Fatalf("SharedCellScans = %d, want %d", stats.SharedCellScans, want)
	}
	for qi, q := range qs {
		want, _ := ix.SearchWithStats(q, 20, ix.NList())
		if !reflect.DeepEqual(got[qi], want) {
			t.Fatalf("query %d: grouped %v != sequential %v", qi, got[qi], want)
		}
		for _, nb := range got[qi] {
			if removed[nb.ID] {
				t.Fatalf("query %d: removed id %d surfaced", qi, nb.ID)
			}
		}
	}
}

// TestSearchGroupReuse runs batches of shrinking and growing sizes through
// one Searcher: stale slots from a bigger batch must never leak into a
// smaller one, and an early-returning search must not surface the previous
// batch's results.
func TestSearchGroupReuse(t *testing.T) {
	data := gaussianData(300, 8, 91)
	queries := gaussianData(9, 8, 92)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 6, Seed: 3})
	g := ix.NewSearcher()
	for _, size := range []int{9, 3, 1, 6, 9} {
		qs := make([][]float32, size)
		for i := range qs {
			qs[i] = queries.Row(i)
		}
		g.SearchGroup(qs, 5, 3, nil)
		for qi, q := range qs {
			want, _ := ix.SearchWithStats(q, 5, 3)
			got := g.AppendResults(qi, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d query %d: %v != %v", size, qi, got, want)
			}
		}
		if extra := g.AppendResults(size, nil); extra != nil {
			t.Fatalf("size %d: out-of-range slot returned %v", size, extra)
		}
	}
	// k <= 0 returns early; the previous batch's retained slots must stay
	// invisible.
	g.SearchGroup([][]float32{queries.Row(0)}, 0, 3, nil)
	if res := g.AppendResults(0, nil); res != nil {
		t.Fatalf("early-return search surfaced stale results %v", res)
	}
}

// TestSearchGroupZeroAlloc is the grouped steady-state allocation contract:
// a warmed Searcher serving a constant batch shape performs zero heap
// allocations per batch, for every kernel and in residual mode — the
// //hermes:hotpath guarantee of the shared scan.
func TestSearchGroupZeroAlloc(t *testing.T) {
	data := gaussianData(600, 16, 95)
	queries := gaussianData(8, 16, 96)
	for name, cfg := range searchConfigs(t, 16) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			g := ix.NewSearcher()
			qs := make([][]float32, queries.Len())
			for i := range qs {
				qs[i] = queries.Row(i)
			}
			dst := make([]vec.Neighbor, 0, 16)
			for warm := 0; warm < 3; warm++ {
				g.SearchGroup(qs, 8, 6, nil)
				for i := range qs {
					dst = g.AppendResults(i, dst[:0])
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				g.SearchGroup(qs, 8, 6, nil)
				for i := range qs {
					dst = g.AppendResults(i, dst[:0])
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocations per grouped batch", name, allocs)
			}
		})
	}
}

// TestPredictCells pins the batcher's grouping signal to the probe selection
// the search itself performs.
func TestPredictCells(t *testing.T) {
	data := gaussianData(400, 8, 97)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 10, Seed: 5})
	q := data.Row(7)
	cells := ix.PredictCells(nil, q, 4)
	if len(cells) != 4 {
		t.Fatalf("predicted %d cells, want 4", len(cells))
	}
	s := ix.NewSearcher()
	s.Search(nil, q, 3, 4)
	if !reflect.DeepEqual(cells, s.slots[0].cells) {
		t.Fatalf("predicted %v != searched %v", cells, s.slots[0].cells)
	}
	// Clamps mirror the search path; reuse of dst keeps the caller alloc-free.
	cells = ix.PredictCells(cells, q, 99)
	if len(cells) != ix.NList() {
		t.Fatalf("nProbe=99 predicted %d cells, want %d", len(cells), ix.NList())
	}
	if got := ix.PredictCells(cells, make([]float32, 3), 4); len(got) != 0 {
		t.Fatalf("dim mismatch predicted %d cells, want 0", len(got))
	}
	var un Index
	if got := un.PredictCells(nil, q, 4); len(got) != 0 {
		t.Fatalf("untrained predicted %d cells, want 0", len(got))
	}
}

// BenchmarkGroupScan contrasts one shared batch against the same queries as
// batches of one on a cell-skewed batch: 16 queries drawn from a handful of
// topic centers so their probe sets overlap heavily — the batcher's
// steady-state shape.
func BenchmarkGroupScan(b *testing.B) {
	const dim, batch = 64, 16
	data := gaussianData(20000, dim, 1)
	ix, err := New(Config{Dim: dim, NList: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Train(data); err != nil {
		b.Fatal(err)
	}
	if err := ix.AddBatch(0, data); err != nil {
		b.Fatal(err)
	}
	// Jittered copies of 3 seed rows: heavy probe-set overlap.
	rng := rand.New(rand.NewSource(2))
	qs := make([][]float32, batch)
	for i := range qs {
		base := data.Row([]int{11, 222, 3333}[i%3])
		q := make([]float32, dim)
		for d := range q {
			q[d] = base[d] + float32(rng.NormFloat64())*0.01
		}
		qs[i] = q
	}
	b.Run("grouped", func(b *testing.B) {
		g := ix.NewSearcher()
		dst := make([]vec.Neighbor, 0, 16)
		g.SearchGroup(qs, 10, 8, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.SearchGroup(qs, 10, 8, nil)
			for qi := range qs {
				dst = g.AppendResults(qi, dst[:0])
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		s := ix.NewSearcher()
		dst := make([]vec.Neighbor, 0, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for qi := range qs {
				dst, _ = s.Search(dst[:0], qs[qi], 10, 8)
			}
		}
	})
}
