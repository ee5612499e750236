package distsearch

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// BatchResult is the outcome of one batched distributed search.
type BatchResult struct {
	// Results holds per-query neighbors, index-aligned with the input.
	Results [][]vec.Neighbor
	// DeepLoads[s] counts how many of the batch's queries deep-searched
	// node s — the trace input of the multi-node energy model.
	DeepLoads []int
	// SampleLatency and DeepLatency are the wall times of the two
	// scatter/gather rounds.
	SampleLatency, DeepLatency time.Duration
	// Costs is the per-query cost ledger, index-aligned with the input:
	// node-reported cells and exclusive/amortized codes plus each query's
	// even share of the wire bytes of the batched round-trips that carried
	// it.
	Costs []telemetry.QueryCost
	// Total is the batch-level cost rollup: codes and cells summed from the
	// node ledger entries (each node's entries conserve its distinct-scan
	// counter exactly), scan time from the node-shipped list_scan spans
	// (traced batches only), wire bytes from the coordinator's own
	// round-trip byte deltas. The per-query Costs sum exactly to Total
	// component-wise — the attribution conserves the measurement.
	Total telemetry.QueryCost
	// BatchID is the batch's identity: the batch trace's ID when traced,
	// else a freshly minted ID when a flight recorder is attached (member
	// records carry it so /debug/queries?batch= can reassemble the batch),
	// else 0.
	BatchID uint64
}

// SearchBatch runs the hierarchical search for a whole batch using one
// round trip per node per phase: the sample batch is scattered to all nodes
// at once, shards are ranked per query, and each node then receives a single
// deep request carrying exactly the sub-batch of queries routed to it.
func (co *Coordinator) SearchBatch(queries [][]float32, p hermes.Params) (*BatchResult, error) {
	return co.searchBatch(queries, p, nil)
}

// SearchBatchTraced is SearchBatch with batch-level tracing: the trace's ID
// rides every wire request (grouped node execution stays grouped — nodes ship
// one span per shared phase plus per-query attribution, no per-query
// fallback), the coordinator records its own scatter/rank/gather spans, and
// node spans from every shard are stitched in anchored at their send times.
// When a flight recorder is attached, the batch lands as one summary record
// under the batch ID (the grouped waterfall) plus one member record per
// query carrying its ledger entry and BatchID — the /debug/queries?batch=
// view. A nil trace is exactly SearchBatch.
func (co *Coordinator) SearchBatchTraced(queries [][]float32, p hermes.Params, tr *telemetry.Trace) (*BatchResult, error) {
	return co.searchBatch(queries, p, tr)
}

func (co *Coordinator) searchBatch(queries [][]float32, p hermes.Params, tr *telemetry.Trace) (*BatchResult, error) {
	if len(queries) == 0 {
		return &BatchResult{DeepLoads: make([]int, len(co.nodes))}, nil
	}
	for i, q := range queries {
		if len(q) != co.dim {
			return nil, fmt.Errorf("distsearch: batch query %d dim %d != %d", i, len(q), co.dim)
		}
	}
	p = p.WithDefaults()
	co.m.queries.Add(int64(len(queries)))
	co.m.batchSize.Observe(float64(len(queries)))
	batchID := tr.ID()
	if batchID == 0 && co.rec != nil {
		batchID = telemetry.NewTraceID()
	}
	start := time.Now()

	costs := make([]telemetry.QueryCost, len(queries))
	var total telemetry.QueryCost

	// allIdx is the identity index map for the sample phase, where every
	// request carries the full batch.
	allIdx := make([]int, len(queries))
	for i := range allIdx {
		allIdx[i] = i
	}

	// fold merges one exchange's attribution into the per-query ledger and
	// the batch totals: node-reported per-query entries (index-aligned with
	// idx), an even split of the exchange's wire bytes across the queries
	// the request carried, and the independently sourced totals (distinct
	// codes scanned, list_scan span time, wire bytes).
	fold := func(cl *call, resp *Response, idx []int) {
		stitchSpans(tr, cl.start, resp.Spans)
		for slot, c := range resp.Costs {
			costs[idx[slot]].Add(c)
			total.Cells += c.Cells
			total.SharedCells += c.SharedCells
			total.CodesExclusive += c.CodesExclusive
			total.CodesAmortized += c.CodesAmortized
		}
		wire := cl.sent + cl.recv
		for slot, share := range telemetry.AttributeTotal(wire, make([]int64, len(idx))) {
			costs[idx[slot]].WireBytes += share
		}
		total.WireBytes += wire
		for _, ws := range resp.Spans {
			if ws.Name == "list_scan" {
				total.ScanNanos += ws.DurNanos
			}
		}
	}

	// Phase 1 — one sample-batch request per node.
	endScatter := tr.StartSpan("sample_scatter")
	calls := scatter(co.nodes, &Request{
		Op: OpSampleBatch, Queries: queries, NProbe: p.SampleNProbe,
		Grouped: co.grouped, TraceID: tr.ID(),
	})
	sampled := make([][][]vec.Neighbor, len(co.nodes)) // [node][query]
	err := gather(co.nodes, calls, func(ni int, cl *call, resp *Response) {
		fold(cl, resp, allIdx)
		sampled[ni] = resp.Batch
	})
	endScatter()
	if err != nil {
		return nil, err
	}
	sampleLat := time.Since(start)
	co.m.phaseSample.ObserveDuration(sampleLat)

	// Rank shards per query and build per-node deep sub-batches.
	endRank := tr.StartSpan("rank")
	type ranked struct {
		node int
		d    float32
	}
	deepQueries := make([][][]float32, len(co.nodes)) // [node] -> sub-batch
	deepQueryIdx := make([][]int, len(co.nodes))      // [node] -> original query indices
	deepLoads := make([]int, len(co.nodes))
	for qi := range queries {
		order := make([]ranked, 0, len(co.nodes))
		for ni := range co.nodes {
			if res := sampled[ni][qi]; len(res) > 0 {
				order = append(order, ranked{ni, res[0].Score})
			}
		}
		// Score, then node index: a strict order, so equal sample scores
		// cannot route the same query differently from run to run.
		sort.Slice(order, func(a, b int) bool {
			if order[a].d != order[b].d {
				return order[a].d < order[b].d
			}
			return order[a].node < order[b].node
		})
		deep := p.DeepClusters
		if deep > len(order) {
			deep = len(order)
		}
		for _, r := range order[:deep] {
			if p.PruneEps > 0 && float64(r.d) > (1+p.PruneEps)*float64(order[0].d) {
				break
			}
			deepQueries[r.node] = append(deepQueries[r.node], queries[qi])
			deepQueryIdx[r.node] = append(deepQueryIdx[r.node], qi)
			deepLoads[r.node]++
		}
	}
	endRank()

	// Phase 2 — one deep-batch request per loaded node.
	endGather := tr.StartSpan("deep_gather")
	deepStart := time.Now()
	for ni, n := range co.nodes {
		calls[ni] = nil
		if len(deepQueries[ni]) > 0 {
			calls[ni] = n.send(&Request{
				Op: OpDeepBatch, Queries: deepQueries[ni], K: p.K, NProbe: p.DeepNProbe,
				Grouped: co.grouped, TraceID: tr.ID(),
			})
		}
	}
	merged := make([]*vec.TopK, len(queries))
	for qi := range merged {
		merged[qi] = vec.NewTopK(p.K)
	}
	err = gather(co.nodes, calls, func(ni int, cl *call, resp *Response) {
		fold(cl, resp, deepQueryIdx[ni])
		for slot, res := range resp.Batch {
			for _, nb := range res {
				merged[deepQueryIdx[ni][slot]].Push(nb.ID, nb.Score)
			}
		}
	})
	endGather()
	if err != nil {
		return nil, err
	}
	deepLat := time.Since(deepStart)
	co.m.phaseDeep.ObserveDuration(deepLat)

	out := &BatchResult{
		Results:       make([][]vec.Neighbor, len(queries)),
		DeepLoads:     deepLoads,
		SampleLatency: sampleLat,
		DeepLatency:   deepLat,
		Costs:         costs,
		Total:         total,
		BatchID:       batchID,
	}
	for qi := range queries {
		out.Results[qi] = merged[qi].Results()
	}
	for _, c := range costs {
		co.m.observeCost(c)
	}
	co.recordBatch(out, queries, deepQueryIdx, tr, start)
	return out, nil
}

// recordBatch lands a completed batch in the flight recorder: one member
// record per query (fresh trace ID, the shared BatchID, its ledger entry and
// deep shards) plus one batch summary record under the batch ID itself,
// carrying the stitched grouped waterfall and the batch totals — what
// /debug/queries?batch=<id> renders. No-op without a recorder.
func (co *Coordinator) recordBatch(out *BatchResult, queries [][]float32, deepQueryIdx [][]int, tr *telemetry.Trace, start time.Time) {
	if co.rec == nil {
		return
	}
	wall := time.Since(start)
	deepNodes := make([][]int, len(queries))
	for ni, idx := range deepQueryIdx {
		for _, qi := range idx {
			deepNodes[qi] = append(deepNodes[qi], co.nodes[ni].shardID)
		}
	}
	for qi := range queries {
		qr := telemetry.QueryRecord{
			TraceID:   telemetry.NewTraceID(),
			BatchID:   out.BatchID,
			Start:     start,
			Total:     wall,
			Busy:      wall,
			DeepNodes: deepNodes[qi],
			Scanned:   out.Costs[qi].Codes(),
			Cost:      out.Costs[qi],
		}
		co.rec.Record(qr)
	}
	batch := telemetry.QueryRecord{
		TraceID: out.BatchID,
		BatchID: out.BatchID,
		Start:   start,
		Total:   wall,
		Busy:    wall,
		Scanned: out.Total.Codes(),
		Cost:    out.Total,
	}
	if tr != nil {
		batch.Spans = tr.Spans()
		_, batch.Busy = telemetry.SpanTotals(batch.Spans)
	}
	co.rec.Record(batch)
}
