package distsearch

import (
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/hermes"
	"repro/internal/telemetry"
)

// TestSearchBatchTracedGroupedNoFallback is the tentpole acceptance: a traced
// grouped batch executes the grouped path on every node (no per-query
// fallback), returns results DeepEqual-identical to the untraced grouped
// batch, and its per-query ledger entries sum exactly to the batch's measured
// totals.
func TestSearchBatchTracedGroupedNoFallback(t *testing.T) {
	const shards = 3
	c, co, regs := groupedCluster(t, shards, DialOptions{Grouped: true})
	qs := c.Queries(16, 31)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()

	plain, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	groupedBefore := groupscanTotal(regs)

	tr := telemetry.NewTrace()
	traced, err := co.SearchBatchTraced(queries, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Results, plain.Results) {
		t.Fatal("traced grouped batch drifted from the untraced grouped answer")
	}
	// The traced batch moved the nodes' groupscan counters: grouped
	// execution, not the old per-query fallback.
	if after := groupscanTotal(regs); after < groupedBefore+float64(len(queries)*shards) {
		t.Fatalf("groupscan counters %v -> %v: traced batch did not run grouped", groupedBefore, after)
	}
	if traced.BatchID != tr.ID() {
		t.Fatalf("BatchID %x != trace ID %x", traced.BatchID, tr.ID())
	}

	// Conservation: per-query ledger entries sum exactly to the batch total,
	// component-wise.
	var sum telemetry.QueryCost
	for i, cst := range traced.Costs {
		if cst.Codes() == 0 || cst.Cells == 0 {
			t.Fatalf("query %d ledger empty: %+v", i, cst)
		}
		if cst.WireBytes <= 0 {
			t.Fatalf("query %d has no wire attribution: %+v", i, cst)
		}
		sum.Add(cst)
	}
	if sum != traced.Total {
		t.Fatalf("ledger does not conserve the measurement:\n  sum   %+v\n  total %+v", sum, traced.Total)
	}
	if traced.Total.ScanNanos <= 0 {
		t.Fatal("traced batch measured no scan time")
	}

	// Untraced ledger: same counters, no scan time (no clock on that path),
	// wire bytes still attributed.
	var untracedSum telemetry.QueryCost
	for i, cst := range plain.Costs {
		if cst.ScanNanos != 0 {
			t.Fatalf("untraced query %d carries scan time: %+v", i, cst)
		}
		if cst.Codes() == 0 || cst.WireBytes <= 0 {
			t.Fatalf("untraced query %d ledger empty: %+v", i, cst)
		}
		untracedSum.Add(cst)
	}
	if untracedSum != plain.Total {
		t.Fatalf("untraced ledger does not conserve: sum %+v != total %+v", untracedSum, plain.Total)
	}
	if sum.Cells != untracedSum.Cells || sum.Codes() != untracedSum.Codes() {
		t.Fatalf("traced and untraced batches did different work: %+v vs %+v", sum, untracedSum)
	}

	// The grouped waterfall: coordinator phases once, plus node spans from
	// every shard — each shared phase span appears once per node, not once
	// per query.
	spans := tr.Spans()
	nodesSeen := map[int]bool{}
	scans := 0
	for _, s := range spans {
		if s.Name == "list_scan" {
			nodesSeen[s.Node] = true
			scans++
		}
	}
	if len(nodesSeen) != shards {
		t.Fatalf("list_scan spans from %d nodes, want all %d: %v", len(nodesSeen), shards, spans)
	}
	// Sample phase ships one list_scan per node; deep adds at most one more
	// per loaded node. Far fewer than one per query proves sharing.
	if scans > 2*shards {
		t.Fatalf("%d list_scan spans for %d queries x %d shards: per-query execution leaked in", scans, len(queries), shards)
	}
}

func groupscanTotal(regs []*telemetry.Registry) float64 {
	total := 0.0
	for i, reg := range regs {
		total += reg.Snapshot()[`hermes_node_groupscan_queries_total{shard="`+strconv.Itoa(i)+`"}`]
	}
	return total
}

// TestGroupedBatchE2EDebugQueries is the real-TCP end-to-end: a traced
// grouped batch over live nodes lands in the flight recorder as one batch
// summary (grouped waterfall with shared node spans from every shard) plus
// member records, and /debug/queries?batch= renders the waterfall and the
// attribution table whose totals row matches the batch.
func TestGroupedBatchE2EDebugQueries(t *testing.T) {
	const shards = 3
	rec := telemetry.NewRecorder(128, time.Hour)
	c, co, _ := groupedCluster(t, shards, DialOptions{Grouped: true, Recorder: rec})
	qs := c.Queries(12, 37)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	tr := telemetry.NewTrace()
	res, err := co.SearchBatchTraced(queries, hermes.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}

	batch, members, ok := rec.Batch(res.BatchID)
	if !ok {
		t.Fatalf("batch %016x not in recorder", res.BatchID)
	}
	if !batch.IsBatch() || batch.Cost != res.Total {
		t.Fatalf("batch summary %+v does not carry the batch totals %+v", batch.Cost, res.Total)
	}
	if len(members) != len(queries) {
		t.Fatalf("%d member records, want %d", len(members), len(queries))
	}
	var sum telemetry.QueryCost
	for _, m := range members {
		sum.Add(m.Cost)
	}
	if sum != batch.Cost {
		t.Fatalf("member records sum %+v != batch record %+v", sum, batch.Cost)
	}
	nodesSeen := map[int]bool{}
	for _, s := range batch.Spans {
		if s.Node != telemetry.NodeLocal {
			nodesSeen[s.Node] = true
		}
	}
	if len(nodesSeen) != shards {
		t.Fatalf("batch waterfall has node spans from %d shards, want %d", len(nodesSeen), shards)
	}

	id := strconv.FormatUint(res.BatchID, 16)
	w := httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?batch="+id, nil))
	body := w.Body.String()
	for _, want := range []string{
		"grouped batch",
		"per-query attribution (amortization breakdown):",
		"codes_amort",
		// Shared node spans render with their shard qualifier in the
		// waterfall (stitched from every node's shipped spans).
		"n0.list_scan", "n1.list_scan", "n2.list_scan",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("?batch= view missing %q:\n%s", want, body)
		}
	}

	// The plain listing marks the batch summary and its members.
	w = httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?n=64", nil))
	list := w.Body.String()
	if !strings.Contains(list, "[batch]") || !strings.Contains(list, "batch="+strings.Repeat("0", 16-len(id))+id) {
		t.Fatalf("listing does not mark the batch records:\n%s", list)
	}
}
