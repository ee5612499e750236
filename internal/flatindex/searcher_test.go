package flatindex

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vec"
)

func randIndex(t testing.TB, n, dim int, seed int64) (*Index, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			data.Row(i)[d] = float32(rng.NormFloat64())
		}
	}
	ix := New(dim)
	ix.AddBatch(0, data)
	return ix, data
}

// TestSearcherMatchesScalarScan pins the blocked searcher path to the naive
// row-by-row scan bit-for-bit: vec.L2SquaredBatch uses the same association
// as vec.L2Squared, so scores must be identical, not just close. Sizes
// straddle the scanBlock boundary deliberately.
func TestSearcherMatchesScalarScan(t *testing.T) {
	for _, n := range []int{5, scanBlock - 1, scanBlock, scanBlock + 3, 3*scanBlock + 17} {
		ix, data := randIndex(t, n, 12, int64(n))
		s := ix.NewSearcher()
		for qi := 0; qi < 4; qi++ {
			q := data.Row(qi * (n / 4))
			tk := vec.NewTopK(9)
			for i := 0; i < n; i++ {
				tk.Push(ix.ids[i], vec.L2Squared(q, data.Row(i)))
			}
			want := tk.Results()
			got := s.Search(nil, q, 9)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d query %d: blocked %v != scalar %v", n, qi, got, want)
			}
			pooled := ix.Search(q, 9)
			if !reflect.DeepEqual(pooled, want) {
				t.Fatalf("n=%d query %d: pooled %v != scalar %v", n, qi, pooled, want)
			}
		}
	}
}

// Duplicate vectors tie exactly; the oracle must order them by id whatever
// block they fall in, and an absurd k is clamped to the index size.
func TestSearcherTiesAndHugeK(t *testing.T) {
	ix, data := randIndex(t, scanBlock+40, 6, 11)
	for _, dup := range []int{3, scanBlock - 1, scanBlock, scanBlock + 20} {
		ix.Add(int64(1000-dup), data.Row(7)) // later position, lower-or-higher id
	}
	got := ix.Search(data.Row(7), 3)
	if got[0].Score != 0 || got[1].Score != 0 || got[2].Score != 0 {
		t.Fatalf("expected three exact matches first, got %v", got)
	}
	if got[0].ID != 7 || got[1].ID >= got[2].ID {
		t.Fatalf("tied scores not in id order: %v", got)
	}
	if all := ix.Search(data.Row(7), 1<<62); len(all) != ix.Len() {
		t.Fatalf("k=1<<62 returned %d results, want all %d", len(all), ix.Len())
	}
}

// TestSearcherZeroAlloc: a warmed Searcher with a recycled result slice does
// zero heap allocations per exact query.
func TestSearcherZeroAlloc(t *testing.T) {
	ix, data := randIndex(t, 700, 16, 3)
	s := ix.NewSearcher()
	dst := make([]vec.Neighbor, 0, 16)
	dst = s.Search(dst[:0], data.Row(0), 10)
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.Search(dst[:0], data.Row(1), 10)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per query", allocs)
	}
}

// BenchmarkFlatSearcher10k mirrors BenchmarkFlatSearch10k but holds a warmed
// Searcher, isolating the blocked zero-alloc path.
func BenchmarkFlatSearcher10k(b *testing.B) {
	ix, data := randIndex(b, 10000, 64, 1)
	s := ix.NewSearcher()
	q := data.Row(0)
	dst := make([]vec.Neighbor, 0, 16)
	dst = s.Search(dst[:0], q, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.Search(dst[:0], q, 10)
	}
}
