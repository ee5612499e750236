package ivf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/vec"
)

// searchConfigs returns index configurations covering every batch kernel and
// both encoding modes at dim (must be divisible by 4 for PQ/OPQ).
func searchConfigs(t testing.TB, dim int) map[string]Config {
	t.Helper()
	pq, err := quant.NewPQ(dim, dim/4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	opq, err := quant.NewOPQ(dim, dim/4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	pqRes, err := quant.NewPQ(dim, dim/4, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"Flat":        {Dim: dim, NList: 12, Seed: 2},
		"SQ8":         {Dim: dim, NList: 12, Seed: 2, Quantizer: quant.NewSQ(dim, 8)},
		"SQ4":         {Dim: dim, NList: 12, Seed: 2, Quantizer: quant.NewSQ(dim, 4)},
		"PQ":          {Dim: dim, NList: 12, Seed: 2, Quantizer: pq},
		"OPQ":         {Dim: dim, NList: 12, Seed: 2, Quantizer: opq},
		"PQ-residual": {Dim: dim, NList: 12, Seed: 2, Quantizer: pqRes, ByResidual: true},
	}
}

// oracle is the sorted exhaustive reference for one query: every live code
// of the cells q probes, scored by a fresh kernel over the same codes (bound
// to the query's residual per cell under ByResidual), sorted by (score, id)
// and cut at k, with the solo work stats that scan implies.
func oracle(ix *Index, q []float32, k, nProbe int) ([]vec.Neighbor, SearchStats) {
	kernel := quant.NewBatchDistancer(ix.cfg.Quantizer)
	cs := ix.cfg.Quantizer.CodeSize()
	cells := ix.PredictCells(nil, q, nProbe)
	qres := make([]float32, len(q))
	var all []vec.Neighbor
	for _, c := range cells {
		kernel.BindQuery(q)
		if ix.cfg.ByResidual {
			centroid := ix.centroids.Row(int(c))
			for d := range q {
				qres[d] = q[d] - centroid[d]
			}
			kernel.BindQuery(qres)
		}
		l := &ix.lists[c]
		for i, id := range l.ids {
			if !ix.isDead(int(c), i) {
				all = append(all, vec.Neighbor{ID: id, Score: kernel.Distance(l.codes[i*cs : (i+1)*cs])})
			}
		}
	}
	stats := SearchStats{CellsProbed: len(cells), VectorsScanned: len(all)}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k = min(k, len(all)); k == 0 {
		return nil, stats
	}
	return all[:k], stats
}

// checkOracle runs qs through s in batches of size (1 is a batch of one,
// through the frozen Searcher.Search API) and compares every answer and solo
// stats with the oracle, plus each batch's sharing accounting: distinct
// streams never exceed the logical work, every probe is either a distinct
// cell visit or a saved one, and the ledger attributes exactly the distinct
// codes. It returns "" or the first mismatch.
func checkOracle(s *Searcher, qs [][]float32, k, nProbe, size int, ph *PhaseNanos) string {
	for b0 := 0; b0 < len(qs); b0 += size {
		batch := qs[b0:min(b0+size, len(qs))]
		if size == 1 {
			got, st := s.Search(nil, batch[0], k, nProbe)
			if want, wantSt := oracle(s.ix, batch[0], k, nProbe); !reflect.DeepEqual(got, want) || st != wantSt {
				return fmt.Sprintf("query %d: %v %+v != oracle %v %+v", b0, got, st, want, wantSt)
			}
			continue
		}
		gst := s.SearchGroup(batch, k, nProbe, ph)
		logical, probes := 0, 0
		var codes int64
		for i, q := range batch {
			got, st := s.AppendResults(i, nil), s.QueryStats(i)
			if want, wantSt := oracle(s.ix, q, k, nProbe); !reflect.DeepEqual(got, want) || st != wantSt {
				return fmt.Sprintf("batch of %d, query %d: %v %+v != oracle %v %+v", size, b0+i, got, st, want, wantSt)
			}
			c := s.CostStats(i)
			logical += st.VectorsScanned
			probes += st.CellsProbed
			codes += c.CodesExclusive + c.CodesAmortized
		}
		if gst.Queries != len(batch) || gst.VectorsScanned > logical || gst.CellsScanned+gst.SharedCellScans != probes || codes != int64(gst.VectorsScanned) {
			return fmt.Sprintf("batch at %d: stats %+v against %d logical codes, %d probes, %d attributed codes", b0, gst, logical, probes, codes)
		}
	}
	return ""
}

// oracleRow is one row of the executor's oracle table: a corpus, a query
// set, the search parameters, and the batch sizes every codec of
// searchConfigs runs them at.
type oracleRow struct {
	n, dim, queries int
	seed            int64
	k, nProbe       int
	tombstones      bool  // remove every 4th of the first 40 ids first
	sizes           []int // batch sizes; 1 runs Searcher.Search
	phased          bool  // time every batch into one PhaseNanos
	pooled          bool  // also run the pooled path from two goroutines
}

// oracleRows absorbs the executor's former twin-equivalence tests by name:
// single queries (pooled and on a held Searcher), concurrent pooled queries
// under tombstones, every batch size from one up, and phased shared batches
// all answer to the same oracle.
var oracleRows = map[string]oracleRow{
	"TestSearcherEquivalentToSearch": {n: 600, dim: 16, queries: 8, seed: 31, k: 7, nProbe: 4, sizes: []int{1}, pooled: true},
	"TestSearchBatchEquivalence":     {n: 500, dim: 16, queries: 24, seed: 41, k: 6, nProbe: 5, tombstones: true, sizes: []int{1, 5, 24}, pooled: true},
	"TestSearchBatchMatchesSingle":   {n: 400, dim: 8, queries: 10, seed: 12, k: 5, nProbe: 4, tombstones: true, sizes: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	"TestSearchGroupEquivalence":     {n: 700, dim: 16, queries: 12, seed: 71, k: 7, nProbe: 4, sizes: []int{12}, phased: true},
}

// runOracleRow runs the table row named after the calling test.
func runOracleRow(t *testing.T) {
	row, ok := oracleRows[t.Name()]
	if !ok {
		t.Fatalf("no oracle row for %s", t.Name())
	}
	data := gaussianData(row.n, row.dim, row.seed)
	queries := gaussianData(row.queries, row.dim, row.seed+1)
	qs := make([][]float32, queries.Len())
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	for name, cfg := range searchConfigs(t, row.dim) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			if row.tombstones {
				for id := int64(0); id < 40; id += 4 {
					ix.Remove(id)
				}
			}
			var ph *PhaseNanos
			if row.phased {
				ph = new(PhaseNanos)
			}
			s := ix.NewSearcher()
			for _, size := range row.sizes {
				if msg := checkOracle(s, qs, row.k, row.nProbe, size, ph); msg != "" {
					t.Fatal(msg)
				}
			}
			if ph != nil && (ph.Select <= 0 || ph.Scan <= 0 || ph.Merge <= 0) {
				t.Fatalf("phased batches missing phase time: %+v", *ph)
			}
			if row.pooled {
				// Two goroutines on the index's pool: under -race this also
				// certifies that pooled searchers share no mutable state.
				var wg sync.WaitGroup
				errs := make([]string, 2)
				for w := range errs {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for qi := w; qi < len(qs); qi += 2 {
							got, st := ix.SearchWithStats(qs[qi], row.k, row.nProbe)
							if want, wantSt := oracle(ix, qs[qi], row.k, row.nProbe); !reflect.DeepEqual(got, want) || st != wantSt {
								errs[w] = fmt.Sprintf("pooled query %d: %v %+v != oracle %v %+v", qi, got, st, want, wantSt)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				for _, e := range errs {
					if e != "" {
						t.Fatal(e)
					}
				}
			}
		})
	}
}

func TestSearcherEquivalentToSearch(t *testing.T) { runOracleRow(t) }
func TestSearchBatchEquivalence(t *testing.T)     { runOracleRow(t) }
func TestSearchBatchMatchesSingle(t *testing.T)   { runOracleRow(t) }
func TestSearchGroupEquivalence(t *testing.T)     { runOracleRow(t) }

// TestSearchGroupProperty is the table's randomized row: random corpus,
// quantizer, residual mode, tombstones, batch size, k and nProbe — every
// batch answers to the oracle.
func TestSearchGroupProperty(t *testing.T) {
	f := func(seed int64) bool {
		ix, n, err := randomIndex(seed)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		rng := rand.New(rand.NewSource(seed + 5))
		for i := 0; i < rng.Intn(n/4+1); i++ {
			ix.Remove(int64(rng.Intn(n)))
		}
		qs := make([][]float32, rng.Intn(16)+1)
		for i := range qs {
			q := make([]float32, ix.Dim())
			for d := range q {
				q[d] = float32(rng.NormFloat64())
			}
			qs[i] = q
		}
		k := rng.Intn(10) + 1
		nProbe := rng.Intn(ix.NList()) + 1
		if msg := checkOracle(ix.NewSearcher(), qs, k, nProbe, len(qs), nil); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSearcherNProbeClamp hits the Searcher directly with out-of-range
// nProbe values — the regression test for the old nearestCells slice panic
// when nProbe exceeded NList.
func TestSearcherNProbeClamp(t *testing.T) {
	data := gaussianData(100, 4, 7)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 5, Seed: 1})
	s := ix.NewSearcher()
	res, stats := s.Search(nil, data.Row(0), 3, 99)
	if stats.CellsProbed != 5 {
		t.Fatalf("nProbe=99 probed %d cells, want 5", stats.CellsProbed)
	}
	if len(res) != 3 {
		t.Fatalf("nProbe=99 returned %d results, want 3", len(res))
	}
	if _, stats = s.Search(nil, data.Row(0), 3, -4); stats.CellsProbed != 1 {
		t.Fatalf("nProbe=-4 probed %d cells, want 1", stats.CellsProbed)
	}
}

// A k beyond the live count is clamped to it where the selector is sized: an
// absurd k returns every live vector instead of panicking in makeslice.
func TestSearchHugeKClampedToLiveCount(t *testing.T) {
	data := gaussianData(300, 8, 47)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 6, Seed: 3})
	for id := int64(0); id < 300; id += 9 {
		ix.Remove(id)
	}
	q := data.Row(1)
	want := ix.Search(q, ix.Len(), ix.NList())
	if len(want) != ix.Len() {
		t.Fatalf("full search returned %d of %d live vectors", len(want), ix.Len())
	}
	if got := ix.Search(q, 1<<62, ix.NList()); !reflect.DeepEqual(got, want) {
		t.Fatalf("k=1<<62 returned %d results, want all %d live vectors", len(got), len(want))
	}
	grp, _, _ := searchGroup(ix, [][]float32{q, q}, 1<<62, ix.NList(), nil)
	if !reflect.DeepEqual(grp[0], want) || !reflect.DeepEqual(grp[1], want) {
		t.Fatalf("grouped k=1<<62 returned %d/%d results, want %d", len(grp[0]), len(grp[1]), len(want))
	}
}

// TestSearcherZeroAlloc is the steady-state allocation contract: a warmed
// Searcher with a recycled result slice performs zero heap allocations per
// query, for every kernel and in residual mode.
func TestSearcherZeroAlloc(t *testing.T) {
	data := gaussianData(600, 16, 51)
	queries := gaussianData(4, 16, 52)
	for name, cfg := range searchConfigs(t, 16) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			s := ix.NewSearcher()
			dst := make([]vec.Neighbor, 0, 16)
			for qi := 0; qi < queries.Len(); qi++ { // warm all scratch
				dst, _ = s.Search(dst[:0], queries.Row(qi), 8, 6)
			}
			allocs := testing.AllocsPerRun(50, func() {
				dst, _ = s.Search(dst[:0], queries.Row(1), 8, 6)
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocations per query", name, allocs)
			}
		})
	}
}

// TestSearcherTombstoneCursor checks the sorted-position skip logic against
// removals scattered across block boundaries, before and after Compact.
func TestSearcherTombstoneCursor(t *testing.T) {
	data := gaussianData(900, 8, 61)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 3, Seed: 9})
	removed := map[int64]bool{}
	for id := int64(0); id < 900; id += 7 {
		if ix.Remove(id) {
			removed[id] = true
		}
	}
	check := func(stage string) {
		t.Helper()
		for qi := 0; qi < 5; qi++ {
			res, stats := ix.SearchWithStats(data.Row(qi*13), 900, ix.NList())
			if stats.VectorsScanned != ix.Len() {
				t.Fatalf("%s: scanned %d, want %d live", stage, stats.VectorsScanned, ix.Len())
			}
			for _, nb := range res {
				if removed[nb.ID] {
					t.Fatalf("%s: removed id %d surfaced", stage, nb.ID)
				}
			}
		}
	}
	check("tombstoned")
	ix.Compact()
	if ix.Tombstones() != 0 {
		t.Fatalf("tombstones remain after Compact")
	}
	check("compacted")
}

// BenchmarkSearcherScan is the end-to-end serving-path benchmark: one warmed
// Searcher, steady-state single queries against a 20k-vector index per
// codec, plus the wire case: one shard of hermes-perf's wire_bound (800 x 32
// SQ8 at DefaultNList) at its sample (k 1, nProbe 4) and deep (k 5, nProbe
// 16) shapes, over 64 rotating queries.
func BenchmarkSearcherScan(b *testing.B) {
	const dim = 64
	data := gaussianData(20000, dim, 1)
	pq, err := quant.NewPQ(dim, dim/8, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	quantizers := map[string]quant.Quantizer{
		"Flat": nil,
		"SQ8":  quant.NewSQ(dim, 8),
		"SQ4":  quant.NewSQ(dim, 4),
		"PQ":   pq,
	}
	for name, qz := range quantizers {
		b.Run(fmt.Sprintf("%s/probe8", name), func(b *testing.B) {
			ix, err := New(Config{Dim: dim, NList: 100, Seed: 1, Quantizer: qz})
			if err != nil {
				b.Fatal(err)
			}
			if err := ix.Train(data); err != nil {
				b.Fatal(err)
			}
			if err := ix.AddBatch(0, data); err != nil {
				b.Fatal(err)
			}
			s := ix.NewSearcher()
			dst := make([]vec.Neighbor, 0, 16)
			q := data.Row(0)
			dst, _ = s.Search(dst[:0], q, 10, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = s.Search(dst[:0], q, 10, 8)
			}
		})
	}
	const wireDim, wireN = 32, 800
	wire := gaussianData(wireN, wireDim, 3)
	ix, err := New(Config{Dim: wireDim, NList: DefaultNList(wireN), Seed: 1, Quantizer: quant.NewSQ(wireDim, 8)})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Train(wire); err != nil {
		b.Fatal(err)
	}
	if err := ix.AddBatch(0, wire); err != nil {
		b.Fatal(err)
	}
	qs := gaussianData(64, wireDim, 4)
	for _, shape := range []struct {
		name      string
		k, nProbe int
	}{{"sample", 1, 4}, {"deep", 5, 16}} {
		b.Run("wire/"+shape.name, func(b *testing.B) {
			s := ix.NewSearcher()
			dst := make([]vec.Neighbor, 0, 16)
			for i := 0; i < qs.Len(); i++ {
				dst, _ = s.Search(dst[:0], qs.Row(i), shape.k, shape.nProbe)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = s.Search(dst[:0], qs.Row(i%64), shape.k, shape.nProbe)
			}
		})
	}
}
