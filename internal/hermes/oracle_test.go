package hermes

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// The oracle table: every Store search entry point against reference, a
// textbook hierarchical search over fresh per-shard Index searches. The
// entry points share one executor, so comparing them with each other would
// prove nothing; each is compared with the reference instead.

// reference answers q the way the paper's algorithm reads, one shard at a
// time: sample (or score) every shard, sort by (score, shard), take the top
// DeepClusters under the PruneEps cut, deep-search them and fold their
// results into a top-k in ranked order.
func reference(st *Store, q []float32, p Params, by ranking) ([]vec.Neighbor, SearchStats) {
	p = p.WithDefaults()
	var stats SearchStats
	type scored struct {
		d     float32
		shard int
	}
	var order []scored
	for s, sh := range st.Shards {
		switch by {
		case bySample:
			res, ss := sh.Index.SearchWithStats(q, 1, p.SampleNProbe)
			stats.SampledShards++
			stats.SampleScanned += ss.VectorsScanned
			if len(res) > 0 {
				order = append(order, scored{res[0].Score, s})
			}
		case byCentroid:
			order = append(order, scored{vec.L2Squared(q, sh.Centroid), s})
		case byIndex:
			order = append(order, scored{0, s})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].shard < order[j].shard
	})
	tk := vec.NewTopK(p.K)
	for i, r := range order {
		if i == p.DeepClusters {
			break
		}
		if by == bySample && p.PruneEps > 0 && i > 0 && float64(r.d) > (1+p.PruneEps)*float64(order[0].d) {
			break
		}
		res, ds := st.Shards[r.shard].Index.SearchWithStats(q, p.K, p.DeepNProbe)
		stats.DeepShards = append(stats.DeepShards, r.shard)
		stats.DeepScanned += ds.VectorsScanned
		for _, nb := range res {
			tk.Push(nb.ID, nb.Score)
		}
	}
	return tk.Results(), stats
}

// oracleRow is one entry point: run answers a batch of queries through it,
// and the reference answers each query with route by and a deep budget of
// deep shards (0 keeps Params.DeepClusters).
type oracleRow struct {
	name string
	by   ranking
	deep int
	run  func(st *Store, qs [][]float32, p Params) []BatchResult
}

// oracleRows returns the table for st: the single-query entry points, the
// traced ones, the ablation routes, and SearchGrouped cutting the queries
// into batches of each of sizes.
func oracleRows(st *Store, sizes ...int) []oracleRow {
	single := func(search func(st *Store, q []float32, p Params) ([]vec.Neighbor, SearchStats)) func(*Store, [][]float32, Params) []BatchResult {
		return func(st *Store, qs [][]float32, p Params) []BatchResult {
			out := make([]BatchResult, len(qs))
			for i, q := range qs {
				out[i].Neighbors, out[i].Stats = search(st, q, p)
			}
			return out
		}
	}
	rows := []oracleRow{
		{"Search", bySample, 0, single((*Store).Search)},
		{"SearchTraced", bySample, 0, single(func(st *Store, q []float32, p Params) ([]vec.Neighbor, SearchStats) {
			return st.SearchTraced(q, p, telemetry.NewTrace())
		})},
		{"SearchGroupedTraced", bySample, 0, func(st *Store, qs [][]float32, p Params) []BatchResult {
			out, _ := st.SearchGroupedTraced(qs, p, telemetry.NewTrace())
			return out
		}},
		{"SearchCentroid", byCentroid, 0, single((*Store).SearchCentroid)},
		{"SearchAll", byIndex, st.NumShards(), single((*Store).SearchAll)},
		{"SearchFirstN/n=2", byIndex, 2, single(func(st *Store, q []float32, p Params) ([]vec.Neighbor, SearchStats) {
			return st.SearchFirstN(q, p, 2)
		})},
		{"SearchFirstN/n=0", byIndex, 0, single(func(st *Store, q []float32, p Params) ([]vec.Neighbor, SearchStats) {
			return st.SearchFirstN(q, p, 0)
		})},
	}
	for _, b := range sizes {
		rows = append(rows, oracleRow{fmt.Sprintf("SearchGrouped/batch=%d", b), bySample, 0,
			func(st *Store, qs [][]float32, p Params) []BatchResult {
				var out []BatchResult
				for lo := 0; lo < len(qs); lo += b {
					part, _ := st.SearchGrouped(qs[lo:min(lo+b, len(qs))], p)
					out = append(out, part...)
				}
				return out
			}})
	}
	return rows
}

// checkOracle runs every row of st's table whose name starts with prefix
// over qs and requires each query's neighbors and stats to DeepEqual the
// reference's.
func checkOracle(t *testing.T, st *Store, qs [][]float32, p Params, prefix string, sizes ...int) {
	t.Helper()
	for _, row := range oracleRows(st, sizes...) {
		if !strings.HasPrefix(row.name, prefix) {
			continue
		}
		rp := p
		if row.deep > 0 {
			rp.DeepClusters = row.deep
		}
		got := row.run(st, qs, p)
		if len(got) != len(qs) {
			t.Fatalf("%s: %d results for %d queries", row.name, len(got), len(qs))
		}
		for i, q := range qs {
			want, wantStats := reference(st, q, rp, row.by)
			if !reflect.DeepEqual(got[i].Neighbors, want) {
				t.Fatalf("%s query %d (p=%+v): neighbors %v, reference %v", row.name, i, p, got[i].Neighbors, want)
			}
			if !reflect.DeepEqual(got[i].Stats, wantStats) {
				t.Fatalf("%s query %d (p=%+v): stats %+v, reference %+v", row.name, i, p, got[i].Stats, wantStats)
			}
		}
	}
}

// oracleStores builds two stores over c: a clean one, and one with
// tombstones from Store.Remove — every third document, and all of the last
// shard, which then samples empty and is never ranked.
func oracleStores(t *testing.T, c *corpus.Corpus, shards int) map[string]*Store {
	t.Helper()
	dead := buildStore(t, c.Vectors, shards)
	for id := range dead.Assign {
		if id%3 == 0 || dead.Assign[id] == shards-1 {
			if _, ok := dead.Remove(int64(id)); !ok {
				t.Fatalf("Remove(%d) found nothing", id)
			}
		}
	}
	return map[string]*Store{"clean": buildStore(t, c.Vectors, shards), "tombstoned": dead}
}

func rowsOf(m *vec.Matrix) [][]float32 {
	rows := make([][]float32, m.Len())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

var oracleParams = map[string]Params{
	"default": DefaultParams(),
	"pruned":  {K: 5, SampleNProbe: 8, DeepNProbe: 64, DeepClusters: 3, PruneEps: 0.25},
	"deep1":   {K: 3, SampleNProbe: 4, DeepNProbe: 32, DeepClusters: 1},
}

// TestSearchGroupedMatchesSequential runs every entry point of the table,
// SearchGrouped on the whole batch, on a clean and a tombstoned store, with
// and without PruneEps.
func TestSearchGroupedMatchesSequential(t *testing.T) {
	c := testCorpus(t, 1500, 6)
	qs := rowsOf(c.Queries(20, 43).Vectors)
	stores := oracleStores(t, c, 6)
	for pname, p := range oracleParams {
		t.Run(pname, func(t *testing.T) {
			for sname, st := range stores {
				t.Run(sname, func(t *testing.T) {
					checkOracle(t, st, qs, p, "", len(qs))
					// Every query samples every shard.
					_, gstats := st.SearchGrouped(qs, p)
					if gstats.Sample.Queries != len(qs)*st.NumShards() {
						t.Fatalf("sample grouped %d queries, want %d", gstats.Sample.Queries, len(qs)*st.NumShards())
					}
				})
			}
		})
	}
}

// TestSearchBatchMatchesSingle runs SearchGrouped at every batch size from
// one query to the whole set.
func TestSearchBatchMatchesSingle(t *testing.T) {
	c := testCorpus(t, 1000, 5)
	qs := rowsOf(c.Queries(16, 97).Vectors)
	sizes := make([]int, len(qs))
	for i := range sizes {
		sizes[i] = i + 1
	}
	for sname, st := range oracleStores(t, c, 5) {
		for _, pname := range []string{"default", "pruned"} {
			t.Run(sname+"/"+pname, func(t *testing.T) {
				checkOracle(t, st, qs, oracleParams[pname], "SearchGrouped/", sizes...)
			})
		}
	}
}

// TestSearchGroupedProperty randomizes batch shape, parameters and query
// mix over every row of the table, PruneEps included.
func TestSearchGroupedProperty(t *testing.T) {
	c := testCorpus(t, 1200, 8)
	stores := oracleStores(t, c, 8)
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 12; iter++ {
		n := rng.Intn(24) + 1
		qs := rowsOf(c.Queries(n, int64(100+iter)).Vectors)
		p := Params{
			K:            rng.Intn(8) + 1,
			SampleNProbe: rng.Intn(8) + 1,
			DeepNProbe:   rng.Intn(64) + 1,
			DeepClusters: rng.Intn(8) + 1,
		}
		if rng.Intn(2) == 0 {
			p.PruneEps = rng.Float64() * 0.5
		}
		st := stores["clean"]
		if iter%2 == 1 {
			st = stores["tombstoned"]
		}
		checkOracle(t, st, qs, p, "", 1, rng.Intn(n)+1, n)
	}
}

// TestSearchGroupedEmpty covers the degenerate shapes: an empty batch
// returns nothing and counts nothing, and a batch of one matches the
// reference on every row.
func TestSearchGroupedEmpty(t *testing.T) {
	c := testCorpus(t, 300, 3)
	st := buildStore(t, c.Vectors, 3)
	reg := telemetry.NewRegistry()
	st.SetTelemetry(reg)
	for _, qs := range [][][]float32{nil, {}} {
		out, gstats := st.SearchGrouped(qs, DefaultParams())
		if len(out) != 0 || gstats != (BatchGroupStats{}) {
			t.Fatalf("empty batch: out=%d stats=%+v", len(out), gstats)
		}
	}
	if got := reg.Snapshot()["hermes_store_searches_total"]; got != 0 {
		t.Fatalf("empty batches counted %v searches", got)
	}
	checkOracle(t, st, [][]float32{c.Vectors.Row(0)}, DefaultParams(), "", 1)
}

// TestSearchGroupedTracedEquivalence runs the traced rows of the table and
// pins what tracing adds: the ledger counters equal the untraced ones, the
// attributed scan time is present, conserved and within the measured
// phases, and the shared phases land once each for the whole batch.
func TestSearchGroupedTracedEquivalence(t *testing.T) {
	c := testCorpus(t, 1500, 4)
	qs := rowsOf(c.Queries(16, 143).Vectors)
	p := DefaultParams()
	for sname, st := range oracleStores(t, c, 4) {
		t.Run(sname, func(t *testing.T) {
			checkOracle(t, st, qs, p, "SearchTraced")
			checkOracle(t, st, qs, p, "SearchGroupedTraced")

			plain, pStats := st.SearchGrouped(qs, p)
			tr := telemetry.NewTrace()
			traced, tStats := st.SearchGroupedTraced(qs, p, tr)
			if pStats != tStats {
				t.Fatalf("group stats diverge: %+v != %+v", pStats, tStats)
			}
			var attributed, scanSum int64
			for i := range qs {
				if plain[i].Cost.ScanNanos != 0 {
					t.Fatalf("query %d: untraced ledger read the clock: %+v", i, plain[i].Cost)
				}
				// Zeroing the traced entry's scan time must reproduce the
				// untraced entry exactly: the counters are the same
				// measurement.
				got := traced[i].Cost
				scanSum += got.ScanNanos
				got.ScanNanos = 0
				if got != plain[i].Cost {
					t.Fatalf("query %d: ledger counters diverge: traced %+v, untraced %+v", i, got, plain[i].Cost)
				}
				attributed += traced[i].Cost.Codes()
			}
			// The ledger conserves the batch's distinct code traffic across
			// shards and phases.
			if want := int64(tStats.Sample.VectorsScanned + tStats.Deep.VectorsScanned); attributed != want {
				t.Fatalf("attributed %d codes != %d distinct streamed", attributed, want)
			}
			if scanSum <= 0 {
				t.Fatal("traced batch attributed no scan time")
			}
			spans := tr.Spans()
			byName := map[string]telemetry.Span{}
			for _, s := range spans {
				byName[s.Name] = s
			}
			for _, name := range []string{"sample", "rank", "deep"} {
				if _, ok := byName[name]; !ok {
					t.Fatalf("trace missing shared %q span (got %v)", name, spans)
				}
			}
			if len(spans) != 3 {
				t.Fatalf("grouped trace has %d spans, want exactly one per shared phase: %v", len(spans), spans)
			}
			if wall := byName["sample"].Duration + byName["deep"].Duration; time.Duration(scanSum) > wall {
				t.Fatalf("attributed scan %v exceeds measured phase wall %v", time.Duration(scanSum), wall)
			}
		})
	}
}
