package hermes

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestSearchGroupedSharesScans asserts the point of the exercise on a
// topic-skewed batch: co-probing queries must actually share cell streams,
// i.e. distinct streamed vectors < logical scanned vectors.
func TestSearchGroupedSharesScans(t *testing.T) {
	c := testCorpus(t, 1500, 4) // few topics => heavy probe overlap
	st := buildStore(t, c.Vectors, 4)
	qs := c.Queries(24, 47)
	rows := make([][]float32, qs.Vectors.Len())
	for i := range rows {
		rows[i] = qs.Vectors.Row(i)
	}
	got, gstats := st.SearchGrouped(rows, DefaultParams())
	logical := 0
	for _, r := range got {
		logical += r.Stats.SampleScanned + r.Stats.DeepScanned
	}
	streamed := gstats.Sample.VectorsScanned + gstats.Deep.VectorsScanned
	if streamed >= logical {
		t.Fatalf("streamed %d >= logical %d: grouping shared nothing", streamed, logical)
	}
	if gstats.SharedCellScans() == 0 {
		t.Fatal("no shared cell scans on a topic-skewed batch")
	}
}

// TestSearchBatchGroupedMatrix runs every row of a query matrix as one
// grouped batch: each result must equal the single-query Search of that row,
// and the batch must feed the grouped counters.
func TestSearchBatchGroupedMatrix(t *testing.T) {
	c := testCorpus(t, 800, 5)
	st := buildStore(t, c.Vectors, 5)
	reg := telemetry.NewRegistry()
	st.SetTelemetry(reg)
	qs := c.Queries(8, 53)
	rows := make([][]float32, qs.Vectors.Len())
	for i := range rows {
		rows[i] = qs.Vectors.Row(i)
	}
	batch, _ := st.SearchGrouped(rows, DefaultParams())
	if len(batch) != 8 {
		t.Fatalf("batch len %d", len(batch))
	}
	for i := range rows {
		want, _ := st.Search(rows[i], DefaultParams())
		if !reflect.DeepEqual(batch[i].Neighbors, want) {
			t.Fatalf("query %d differs", i)
		}
	}
	snap := reg.Snapshot()
	if v := snap["hermes_store_grouped_queries_total"]; v != 8 {
		t.Fatalf("grouped_queries_total = %v, want 8", v)
	}
	if v := snap["hermes_store_group_shared_scans_total"]; v <= 0 {
		t.Fatalf("group_shared_scans_total = %v, want > 0", v)
	}
}

// TestSearchGroupedConcurrent runs grouped batches from several goroutines —
// the pooled scratch and per-shard group searchers must not share mutable
// state across concurrent batches. Run under -race in tier-1.
func TestSearchGroupedConcurrent(t *testing.T) {
	c := testCorpus(t, 900, 5)
	st := buildStore(t, c.Vectors, 5)
	qs := c.Queries(12, 61)
	rows := make([][]float32, qs.Vectors.Len())
	for i := range rows {
		rows[i] = qs.Vectors.Row(i)
	}
	want, _ := st.SearchGrouped(rows, DefaultParams())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got, _ := st.SearchGrouped(rows, DefaultParams())
				for i := range rows {
					if !reflect.DeepEqual(got[i].Neighbors, want[i].Neighbors) {
						t.Errorf("concurrent batch diverged at query %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPredictCellsStable pins the predictor's shape: keys are (shard, cell)
// pairs from the top centroid-routed shards, deterministic for a given
// query, and queries from the same topic overlap more than queries from
// different topics.
func TestPredictCellsStable(t *testing.T) {
	c := testCorpus(t, 1200, 6)
	st := buildStore(t, c.Vectors, 6)
	p := DefaultParams()
	q := c.Queries(1, 67).Vectors.Row(0)
	a := st.PredictCells(q, p)
	b := st.PredictCells(q, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("prediction not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no predicted cells")
	}
	for _, key := range a {
		shard := int(key >> 32)
		if shard < 0 || shard >= st.NumShards() {
			t.Fatalf("key %x names shard %d out of range", key, shard)
		}
	}
	overlap := func(x, y []uint64) int {
		set := map[uint64]bool{}
		for _, k := range x {
			set[k] = true
		}
		n := 0
		for _, k := range y {
			if set[k] {
				n++
			}
		}
		return n
	}
	// Same-topic queries should predict overlapping keys far more often than
	// not; average over several pairs to keep the assertion robust.
	sameQs := c.Queries(40, 71)
	same, diff, pairs := 0, 0, 0
	for i := 0; i+1 < sameQs.Vectors.Len(); i += 2 {
		qa, qb := sameQs.Vectors.Row(i), sameQs.Vectors.Row(i+1)
		if sameQs.Topics[i] == sameQs.Topics[i+1] {
			same += overlap(st.PredictCells(qa, p), st.PredictCells(qb, p))
		} else {
			diff += overlap(st.PredictCells(qa, p), st.PredictCells(qb, p))
		}
		pairs++
	}
	if same == 0 {
		t.Fatal("same-topic queries predicted zero overlapping keys")
	}
}

// TestSearchGroupedTracedNilTrace pins the nil-trace contract: a nil trace is
// exactly SearchGrouped, scan time stays unattributed.
func TestSearchGroupedTracedNilTrace(t *testing.T) {
	c := testCorpus(t, 600, 3)
	st := buildStore(t, c.Vectors, 3)
	qs := c.Queries(6, 151)
	rows := make([][]float32, qs.Vectors.Len())
	for i := range rows {
		rows[i] = qs.Vectors.Row(i)
	}
	out, _ := st.SearchGroupedTraced(rows, DefaultParams(), nil)
	for i := range rows {
		if out[i].Cost.ScanNanos != 0 {
			t.Fatalf("query %d: nil trace attributed scan time %+v", i, out[i].Cost)
		}
		if out[i].Cost.Codes() == 0 {
			t.Fatalf("query %d: ledger empty on the untraced path", i)
		}
	}
}
