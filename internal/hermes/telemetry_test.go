package hermes

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/evlog"
	"repro/internal/telemetry"
)

func TestStoreTelemetry(t *testing.T) {
	c, err := corpus.Generate(corpus.Spec{NumChunks: 600, Dim: 16, NumTopics: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(c.Vectors, BuildOptions{NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	st.SetTelemetry(reg)

	qs := c.Queries(5, 7)
	for i := 0; i < 5; i++ {
		if res, _ := st.Search(qs.Vectors.Row(i), DefaultParams()); len(res) == 0 {
			t.Fatalf("query %d returned nothing", i)
		}
	}

	snap := reg.Snapshot()
	if got := snap["hermes_store_searches_total"]; got != 5 {
		t.Errorf("searches = %v, want 5", got)
	}
	if got := snap["hermes_store_search_seconds:count"]; got != 5 {
		t.Errorf("latency observations = %v, want 5", got)
	}
	if got := snap["hermes_store_sample_scanned_total"]; got <= 0 {
		t.Errorf("sample scanned = %v, want > 0", got)
	}
	if got := snap["hermes_store_deep_scanned_total"]; got <= 0 {
		t.Errorf("deep scanned = %v, want > 0", got)
	}
	// Per-quantizer scan histogram: 5 queries x (3 sample + up to 3 deep)
	// shard scans, all SQ8 in the default build, on one labeled series.
	scans := snap[`hermes_store_scan_seconds{quantizer="SQ8"}:count`]
	if scans < 5*4 {
		t.Errorf("scan observations = %v, want >= 20", scans)
	}

	// A grouped batch of 5: every query counts as a search, observes the
	// batch's wall time and rides the grouped counters; the per-shard scan
	// histogram sees one shared scan per shard and phase, and the slow-scan
	// detector judges those same scans. A fake clock stepping 1ms per read
	// makes every timed scan slow.
	ev := evlog.New(evlog.Config{Capacity: 64})
	st.SetEvents(ev, 500*time.Microsecond)
	rec := telemetry.NewRecorder(32, 0)
	st.SetRecorder(rec)
	defer func(orig func() time.Time) { now = orig }(now)
	var tick time.Duration
	now = func() time.Time { tick += time.Millisecond; return time.Unix(0, 0).Add(tick) }
	rows := make([][]float32, 5)
	for i := range rows {
		rows[i] = qs.Vectors.Row(i)
	}
	out, gs := st.SearchGrouped(rows, DefaultParams())
	deepShards := map[int]bool{}
	for _, r := range out {
		for _, s := range r.Stats.DeepShards {
			deepShards[s] = true
		}
	}
	shardScans := float64(st.NumShards() + len(deepShards))
	snap = reg.Snapshot()
	for name, want := range map[string]float64{
		"hermes_store_searches_total":                      10,
		"hermes_store_search_seconds:count":                10,
		"hermes_store_grouped_queries_total":               5,
		"hermes_store_group_shared_scans_total":            float64(gs.SharedCellScans()),
		`hermes_store_scan_seconds{quantizer="SQ8"}:count`: scans + shardScans,
	} {
		if got := snap[name]; got != want {
			t.Errorf("after a batch of 5: %s = %v, want %v", name, got, want)
		}
	}
	if gs.SharedCellScans() <= 0 {
		t.Errorf("batch of 5 shared no cell scans: %+v", gs)
	}
	if got := float64(len(ev.Events())); got != shardScans {
		t.Errorf("slow-scan events = %v, want one per shard scan (%v)", got, shardScans)
	}
	records := rec.Recent(10)
	if len(records) != 5 {
		t.Fatalf("recorder holds %d records, want one per query", len(records))
	}
	want := map[string]int{} // the queries' deep shards and scan counts
	for _, r := range out {
		want[fmt.Sprint(r.Stats.DeepShards, r.Stats.SampleScanned+r.Stats.DeepScanned)]++
	}
	for _, qr := range records {
		key := fmt.Sprint(qr.DeepNodes, qr.Scanned)
		if want[key] == 0 {
			t.Errorf("record %+v matches no query of the batch", qr)
		}
		want[key]--
		if qr.Total != records[0].Total || qr.Busy != qr.Total || len(qr.Spans) != 0 {
			t.Errorf("batch record %+v: want the batch's wall time, busy == total, no spans", qr)
		}
	}
}
