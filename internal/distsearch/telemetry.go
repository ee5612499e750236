package distsearch

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// now is the injectable clock seam for deadline arithmetic (span and
// histogram timing already run through internal/telemetry's own seam).
var now = time.Now

// opName renders an Op as a metric label value.
func opName(op Op) string {
	switch op {
	case OpInfo:
		return "info"
	case OpSample:
		return "sample"
	case OpDeep:
		return "deep"
	case OpShutdown:
		return "shutdown"
	case OpSampleBatch:
		return "sample_batch"
	case OpDeepBatch:
		return "deep_batch"
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpStats:
		return "stats"
	case OpCompact:
		return "compact"
	case OpMetricsSnap:
		return "metrics_snap"
	default:
		return "unknown"
	}
}

// allOps enumerates the wire protocol for per-op handle tables.
var allOps = []Op{
	OpInfo, OpSample, OpDeep, OpShutdown, OpSampleBatch, OpDeepBatch,
	OpAdd, OpRemove, OpStats, OpCompact, OpMetricsSnap,
}

// coordMetrics bundles the coordinator-side metric handles. Handles are
// resolved once at dial time so the per-request hot path touches only
// atomics; every field tolerates a nil registry (nil handles no-op).
type coordMetrics struct {
	reg          *telemetry.Registry
	inflight     *telemetry.Gauge
	errors       *telemetry.Counter
	deadlineHits *telemetry.Counter
	queries      *telemetry.Counter
	phaseSample  *telemetry.Histogram
	phaseDeep    *telemetry.Histogram
	batchSize    *telemetry.Histogram
	byOp         map[Op]*telemetry.Counter

	// Per-query cost-ledger histograms (hermes_query_cost_*): one observation
	// per completed query, grouped or not, from the coordinator's assembled
	// QueryCost.
	costScan   *telemetry.Histogram
	costWire   *telemetry.Histogram
	costShared *telemetry.Histogram
	costCells  *telemetry.Histogram
	costCodes  *telemetry.Histogram
}

func newCoordMetrics(reg *telemetry.Registry) *coordMetrics {
	m := &coordMetrics{
		reg: reg,
		//lint:ignore metricname in-flight round-trips are a resident count, not a flow or a unit-bearing quantity
		inflight: reg.Gauge("hermes_distsearch_inflight",
			"round-trips currently in flight across all nodes"),
		errors: reg.Counter("hermes_distsearch_errors_total",
			"failed round-trips (all causes, including deadline hits)"),
		deadlineHits: reg.Counter("hermes_distsearch_deadline_hits_total",
			"round-trips aborted by the per-request I/O deadline"),
		queries: reg.Counter("hermes_coordinator_queries_total",
			"hierarchical queries executed by this coordinator"),
		phaseSample: reg.Histogram("hermes_coordinator_phase_seconds",
			"wall time of each search phase", telemetry.DefLatencyBuckets, "phase", "sample"),
		phaseDeep: reg.Histogram("hermes_coordinator_phase_seconds",
			"wall time of each search phase", telemetry.DefLatencyBuckets, "phase", "deep"),
		//lint:ignore metricname batch size is a dimensionless query count per call
		batchSize: reg.Histogram("hermes_coordinator_batch_size",
			"queries per SearchBatch call", telemetry.DefSizeBuckets),
		byOp: make(map[Op]*telemetry.Counter, len(allOps)),
		costScan: reg.Histogram("hermes_query_cost_scan_seconds",
			"per-query attributed scan time (codes-proportional share of measured scan phases; traced queries only)",
			telemetry.DefLatencyBuckets),
		costWire: reg.Histogram("hermes_query_cost_wire_bytes",
			"per-query attributed coordinator<->node wire traffic", telemetry.DefByteBuckets),
		costShared: reg.Histogram("hermes_query_cost_shared_ratio",
			"fraction of a query's attributed codes that came from shared (amortized) cell streams",
			[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}),
		//lint:ignore metricname probed cells are a dimensionless count per query, not a unit-bearing quantity
		costCells: reg.Histogram("hermes_query_cost_cells",
			"IVF cells probed per query across all shards and phases", telemetry.DefSizeBuckets),
		//lint:ignore metricname attributed codes are a dimensionless count per query, not a unit-bearing quantity
		costCodes: reg.Histogram("hermes_query_cost_codes",
			"codes attributed per query (exclusive + shared-amortized)", defCodeBuckets),
	}
	for _, op := range allOps {
		m.byOp[op] = reg.Counter("hermes_distsearch_requests_total",
			"round-trips issued by op", "op", opName(op))
	}
	return m
}

// defCodeBuckets spans per-query attributed code counts: tiny sampled probes
// up through deep scans over large shards.
var defCodeBuckets = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// observeCost lands one completed query's assembled ledger entry on the
// hermes_query_cost_* histograms. ScanNanos is only observed when present
// (untraced queries carry none by contract — observing their zeros would
// drown the latency histogram's signal).
func (m *coordMetrics) observeCost(c telemetry.QueryCost) {
	if c.ScanNanos > 0 {
		m.costScan.ObserveDuration(time.Duration(c.ScanNanos))
	}
	m.costWire.Observe(float64(c.WireBytes))
	m.costShared.Observe(c.SharedFrac())
	m.costCells.Observe(float64(c.Cells))
	m.costCodes.Observe(float64(c.Codes()))
}

func (m *coordMetrics) opCounter(op Op) *telemetry.Counter {
	if c, ok := m.byOp[op]; ok {
		return c
	}
	return nil
}

// clientMetrics are the per-node-connection handles (labeled by shard).
type clientMetrics struct {
	roundTrip *telemetry.Histogram
	compute   *telemetry.Histogram
	sent      *telemetry.Counter
	recv      *telemetry.Counter
	deepTotal *telemetry.Counter
}

func newClientMetrics(reg *telemetry.Registry, shardID int) clientMetrics {
	node := strconv.Itoa(shardID)
	return clientMetrics{
		roundTrip: reg.Histogram("hermes_distsearch_roundtrip_seconds",
			"time from send until the coordinator reads the response, per node (a wave reads its responses in order)", telemetry.DefLatencyBuckets, "node", node),
		compute: reg.Histogram("hermes_distsearch_node_compute_seconds",
			"node-reported handling time per node (round-trip minus wire)", telemetry.DefLatencyBuckets, "node", node),
		sent: reg.Counter("hermes_distsearch_bytes_sent_total",
			"request bytes sent per node", "node", node),
		recv: reg.Counter("hermes_distsearch_bytes_recv_total",
			"response bytes received per node", "node", node),
		deepTotal: reg.Counter("hermes_coordinator_shard_deep_total",
			"deep searches this coordinator sent to each shard (the live Fig. 13 load view)", "shard", node),
	}
}

// nodeMetrics are the node-side handles (one table per served shard).
type nodeMetrics struct {
	reg      *telemetry.Registry
	traced   *telemetry.Counter
	requests map[Op]*telemetry.Counter
	seconds  map[Op]*telemetry.Histogram
	// scanSeconds times the raw index scans inside search ops (request
	// handling minus protocol overhead), labeled by shard and the shard's
	// quantizer kind so /metrics answers "how fast does each compression
	// scheme scan" per node; the coordinator -stats view surfaces its p95.
	scanSeconds *telemetry.Histogram
	// groupscanQueries / groupscanShared account the grouped batch path:
	// queries served as one ivf.Searcher batch and the per-cell code streams
	// the grouping avoided versus per-query execution.
	groupscanQueries *telemetry.Counter
	groupscanShared  *telemetry.Counter
}

func newNodeMetrics(reg *telemetry.Registry, shardID int, quantizer string) *nodeMetrics {
	shard := strconv.Itoa(shardID)
	m := &nodeMetrics{
		reg: reg,
		traced: reg.Counter("hermes_node_traced_requests_total",
			"requests carrying a coordinator trace ID", "shard", shard),
		requests: make(map[Op]*telemetry.Counter, len(allOps)),
		seconds:  make(map[Op]*telemetry.Histogram, len(allOps)),
		scanSeconds: reg.Histogram("hermes_node_scan_seconds",
			"per-query index scan time by shard and quantizer kind",
			telemetry.DefLatencyBuckets, "shard", shard, "quantizer", quantizer),
		groupscanQueries: reg.Counter("hermes_node_groupscan_queries_total",
			"batch queries served through the grouped multi-query cell scan", "shard", shard),
		groupscanShared: reg.Counter("hermes_node_groupscan_shared_scans_total",
			"per-cell code streams saved by grouped batch execution", "shard", shard),
	}
	for _, op := range allOps {
		m.requests[op] = reg.Counter("hermes_node_requests_total",
			"requests served by op", "shard", shard, "op", opName(op))
		m.seconds[op] = reg.Histogram("hermes_node_request_seconds",
			"node-side handling time by op", telemetry.DefLatencyBuckets, "shard", shard, "op", opName(op))
	}
	return m
}

func (m *nodeMetrics) observe(op Op, d time.Duration, traceID uint64) {
	m.requests[op].Inc()
	m.seconds[op].ObserveDuration(d)
	if traceID != 0 {
		m.traced.Inc()
	}
}
