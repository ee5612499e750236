package distsearch

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evlog"
	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// nodeClient is one persistent connection to a shard node. Requests on a
// single connection are serialized by a mutex; the coordinator issues
// cross-node requests in parallel.
type nodeClient struct {
	addr string
	conn net.Conn
	mu   sync.Mutex

	// br reads response frames; wbuf and rbuf are the request frame and the
	// response body, each reused at the largest frame seen. lastID is the
	// request ID of the latest exchange, which its response must echo.
	br     *bufio.Reader
	wbuf   []byte
	rbuf   []byte
	lastID uint64

	// broken marks the connection poisoned after a transport failure. Once
	// an exchange fails, the stream position is unknown: a node that
	// finishes a timed-out request late still writes its response. The
	// echoed request ID would expose that stale reply, but a connection
	// that cannot be trusted to be in step is not worth keeping, so the
	// failing exchange closes the socket and the next round-trip redials.
	broken bool

	// dialTimeout bounds the TCP dial and the OpInfo handshake, for both
	// the initial connect and lazy redials. rtTimeout, when positive,
	// bounds each round-trip: read/write deadlines are set on the
	// connection per request so a hung node surfaces as a timeout error
	// instead of stalling the coordinator forever.
	dialTimeout time.Duration
	rtTimeout   time.Duration
	cm          *coordMetrics
	met         clientMetrics
	// ev receives lifecycle events (poisoning, deadline hits, redials); a
	// nil log swallows them at zero cost.
	ev *evlog.Log

	shardID  int
	size     int
	dim      int
	centroid []float32

	// deepLoad counts deep searches sent to this node over the client's
	// lifetime — the coordinator-side view of per-shard load, feeding the
	// imbalance gauge and the DVFS energy collector.
	deepLoad atomic.Int64

	// wireBytes accumulates every frame byte sent to or received from this
	// node. Because the per-connection mutex serializes exchanges, the
	// counter's delta across one round-trip is that request's exact wire
	// cost — the WireBytes source of the query ledger.
	wireBytes atomic.Int64
}

func dialNode(addr string, timeout, rtTimeout time.Duration, cm *coordMetrics, ev *evlog.Log) (*nodeClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		ev.Warn("node.dial", evlog.Str("addr", addr), evlog.Err(err))
		return nil, fmt.Errorf("distsearch: dial %s: %w", addr, err)
	}
	c := &nodeClient{addr: addr, conn: conn, br: bufio.NewReader(conn), dialTimeout: timeout, rtTimeout: rtTimeout, cm: cm, ev: ev}
	// The handshake runs before the shard ID is known, so its bytes reach
	// only wireBytes, not the per-node counters. A node of another wire
	// version fails it with an error naming both versions.
	info, err := c.roundTrip(&Request{Op: OpInfo})
	if err != nil {
		//lint:ignore errdrop the handshake already failed; Close is best-effort cleanup
		conn.Close()
		return nil, err
	}
	c.shardID = info.ShardID
	c.size = info.Size
	c.dim = info.Dim
	c.centroid = info.Centroid
	c.met = newClientMetrics(cm.reg, c.shardID)
	ev.Info("node.dial", evlog.Str("addr", addr), evlog.Int("shard", int64(c.shardID)))
	return c, nil
}

// roundTrip issues one request/response exchange. Each exchange counts into
// the per-op request counter and in-flight gauge, runs under the per-round-
// trip I/O deadline, and lands in the per-node round-trip histogram. A
// connection broken by an earlier transport failure is redialed first.
func (c *nodeClient) roundTrip(req *Request) (*Response, error) {
	resp, _, err := c.roundTripBytes(req)
	return resp, err
}

// roundTripBytes is roundTrip plus the exchange's exact wire cost in bytes
// (request frame sent + response frame received). The delta is read inside
// the per-connection mutex, so concurrent queries on the same connection
// cannot bleed into each other's accounting.
func (c *nodeClient) roundTripBytes(req *Request) (resp *Response, wire int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.wireBytes.Load()
	defer func() { wire = c.wireBytes.Load() - before }()
	c.cm.opCounter(req.Op).Inc()
	switch req.Op {
	case OpDeep:
		c.deepLoad.Add(1)
		c.met.deepTotal.Inc()
	case OpDeepBatch:
		n := int64(len(req.Queries))
		c.deepLoad.Add(n)
		c.met.deepTotal.Add(n)
	}
	c.cm.inflight.Inc()
	defer c.cm.inflight.Dec()
	rtStart := now()
	// Timed by hand rather than via Timer() so a traced request pins its
	// trace ID as the round-trip bucket's exemplar.
	defer func() {
		c.met.roundTrip.ObserveExemplar(now().Sub(rtStart).Seconds(), req.TraceID)
	}()
	if c.broken {
		//lint:ignore lockheldio serializing the redial under the per-connection mutex is the design: one repair at a time, and queued requests must not race a half-built conn
		if rerr := c.redialLocked(); rerr != nil {
			return nil, 0, fmt.Errorf("distsearch: reconnect %s: %w", c.addr, rerr)
		}
	}
	timeout := c.rtTimeout
	if req.Op == OpInfo && timeout <= 0 {
		// DialOptions.Timeout bounds the OpInfo handshake even when
		// round-trips are otherwise deadline-free.
		timeout = c.dialTimeout
	}
	//lint:ignore lockheldio the per-connection mutex keeps one frame exchange in flight per conn, which is what pairs a response with its request; concurrency comes from many nodeClients, not many requests per conn
	resp, err = c.exchangeLocked(req, timeout)
	if err != nil {
		return nil, 0, err
	}
	if resp.ServerNanos > 0 {
		c.met.compute.ObserveDuration(time.Duration(resp.ServerNanos))
	}
	if resp.Err != "" {
		c.cm.errors.Inc()
		return nil, 0, fmt.Errorf("distsearch: node %s: %s", c.addr, resp.Err)
	}
	return resp, 0, nil
}

// exchangeLocked sends one request frame with one Write and reads its
// response frame, under an optional I/O deadline. Any transport failure —
// including a damaged frame or one that does not echo the request's op and
// ID — abandons the connection via breakLocked, since the stream can no
// longer be trusted to pair responses with requests.
func (c *nodeClient) exchangeLocked(req *Request, timeout time.Duration) (*Response, error) {
	if timeout > 0 {
		if err := c.conn.SetDeadline(now().Add(timeout)); err != nil {
			c.breakLocked(err)
			return nil, fmt.Errorf("distsearch: deadline on %s: %w", c.addr, err)
		}
		// Clear the deadline on every exit path so no later write on the
		// connection can inherit an expired deadline (harmless no-op on
		// the error paths, which close the socket anyway).
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	c.lastID++
	c.wbuf = appendRequest(c.wbuf[:0], c.lastID, req)
	sent, err := c.conn.Write(c.wbuf)
	c.met.sent.Add(int64(sent))
	c.wireBytes.Add(int64(sent))
	if err != nil {
		c.breakLocked(err)
		return nil, fmt.Errorf("distsearch: send to %s: %w", c.addr, err)
	}
	h, body, err := readFrame(c.br, c.rbuf)
	c.rbuf = body
	var resp Response
	if err == nil {
		c.met.recv.Add(int64(headerSize + len(body)))
		c.wireBytes.Add(int64(headerSize + len(body)))
		if h.op != req.Op || h.id != c.lastID {
			err = fmt.Errorf("response (op %d, id %d) does not answer request (op %d, id %d)", h.op, h.id, req.Op, c.lastID)
		} else {
			err = decodeResponse(body, &resp)
		}
	}
	if err != nil {
		c.breakLocked(err)
		return nil, fmt.Errorf("distsearch: recv from %s: %w", c.addr, err)
	}
	return &resp, nil
}

// breakLocked records a transport failure and abandons the connection: every
// failure increments the error counter, I/O timeouts additionally count as
// deadline hits, and the socket is closed so a stale late reply cannot be
// mistaken for the answer to a future request.
func (c *nodeClient) breakLocked(err error) {
	c.cm.errors.Inc()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.cm.deadlineHits.Inc()
		//lint:ignore lockheldio the event must be recorded before a queued request can observe (and redial) the broken conn, and Emit only touches the log's in-memory ring
		c.ev.Warn("deadline.hit", evlog.Int("shard", int64(c.shardID)),
			evlog.Str("addr", c.addr), evlog.Dur("timeout", c.rtTimeout))
	}
	//lint:ignore lockheldio same as above: poisoning and its event are one atomic state change under the per-connection mutex
	c.ev.Warn("conn.poisoned", evlog.Int("shard", int64(c.shardID)),
		evlog.Str("addr", c.addr), evlog.Err(err))
	c.abandonLocked()
}

// abandonLocked closes the connection and marks it broken so the next
// round-trip redials.
func (c *nodeClient) abandonLocked() {
	c.broken = true
	//lint:ignore errdrop the connection is being abandoned; Close is best-effort
	c.conn.Close()
}

// redialLocked replaces a broken connection with a fresh dial and handshake,
// reading through the same (reset) buffered reader. The node must still
// present the same shard: a different shard ID or dimensionality at the
// address means the cluster changed underneath the coordinator, whose
// routing state (centroids, per-shard metric labels) would silently lie.
func (c *nodeClient) redialLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		c.cm.errors.Inc()
		//lint:ignore lockheldio redial runs serialized under the per-connection mutex by design (see the roundTrip suppression); the event rides the same critical section
		c.ev.Warn("node.redial", evlog.Int("shard", int64(c.shardID)),
			evlog.Str("addr", c.addr), evlog.Err(err))
		return err
	}
	c.conn = conn
	c.br.Reset(conn)
	c.broken = false
	info, err := c.exchangeLocked(&Request{Op: OpInfo}, c.dialTimeout)
	if err != nil {
		return err // exchangeLocked already re-abandoned the connection
	}
	if info.Err != "" {
		c.cm.errors.Inc()
		c.abandonLocked()
		return fmt.Errorf("handshake rejected: %s", info.Err)
	}
	if info.ShardID != c.shardID || info.Dim != c.dim {
		c.cm.errors.Inc()
		c.abandonLocked()
		return fmt.Errorf("node changed identity: shard %d dim %d, was shard %d dim %d",
			info.ShardID, info.Dim, c.shardID, c.dim)
	}
	c.size = info.Size
	c.centroid = info.Centroid
	//lint:ignore lockheldio see the redial suppression above: the success event belongs to the serialized repair critical section
	c.ev.Info("node.redial", evlog.Int("shard", int64(c.shardID)), evlog.Str("addr", c.addr))
	return nil
}

// close shuts down the client's connection; a connection already abandoned
// after a transport failure reports success.
func (c *nodeClient) close() error {
	c.mu.Lock()
	if c.conn == nil || c.broken {
		c.mu.Unlock()
		return nil
	}
	c.broken = true
	conn := c.conn
	c.mu.Unlock()
	// Close outside the lock: a peer mid-teardown can stall Close, and
	// nothing else touches the conn once broken is set.
	return conn.Close()
}

// Coordinator fans queries out to shard nodes following Hermes' two-phase
// protocol and aggregates the results.
type Coordinator struct {
	nodes []*nodeClient
	dim   int
	m     *coordMetrics
	// rec, when non-nil, receives one QueryRecord per completed
	// SearchTraced/Search call — the flight-recorder hook.
	rec *telemetry.Recorder
	// ev receives serving-path lifecycle events; nil swallows them.
	ev *evlog.Log
	// lenient degrades gracefully on node failure instead of failing the
	// query (see SetLenient).
	lenient bool
	// grouped asks nodes to serve SearchBatch phases through the shared
	// multi-query cell scan (see SetGrouped).
	grouped bool
}

// SetLenient toggles degraded-mode serving: when enabled, a node that fails
// mid-query is skipped — the sample phase ranks the surviving shards and the
// deep phase aggregates whatever returns — instead of failing the whole
// query. Results may miss the dead shard's documents (lower recall) but the
// service stays up, which is how a production tier rides out node loss. A
// query still errors if every node fails.
func (co *Coordinator) SetLenient(lenient bool) { co.lenient = lenient }

// SetGrouped toggles grouped batch execution: when enabled, SearchBatch
// requests carry Request.Grouped, asking each node to run the sub-batch
// through the multi-query grouped cell scan (queries probing the same IVF
// cell share one code stream). The result sets are identical either way —
// the flag only changes node-side execution.
// Call before issuing searches; not synchronized with in-flight batches.
func (co *Coordinator) SetGrouped(grouped bool) { co.grouped = grouped }

// DialOptions configures a coordinator connection.
type DialOptions struct {
	// Timeout bounds the TCP dial and the OpInfo handshake (default 5s).
	Timeout time.Duration
	// RoundTripTimeout, when positive, is the per-request I/O deadline
	// applied to every round-trip after connect, so a hung node fails the
	// request instead of stalling the coordinator forever. Zero (the
	// default, and the plain Dial() behavior) leaves round-trips
	// deadline-free: long-running operations — OpCompact on a large
	// index, big batch payloads on slow links — are never cut short
	// unless the caller opts in. Only the OpInfo handshake is always
	// bounded (by Timeout).
	RoundTripTimeout time.Duration
	// Telemetry receives the coordinator's metrics (nil = telemetry.Default).
	Telemetry *telemetry.Registry
	// Recorder, when non-nil, is the flight recorder completed queries are
	// written to (see SetRecorder).
	Recorder *telemetry.Recorder
	// Lenient starts the coordinator in degraded-mode serving (SetLenient).
	Lenient bool
	// Grouped starts the coordinator with grouped batch execution enabled
	// (SetGrouped): SearchBatch asks nodes for shared multi-query cell
	// scans.
	Grouped bool
	// Events, when non-nil, receives structured lifecycle events —
	// connection poisoning, deadline hits, dials/redials, load-imbalance
	// threshold crossings — for the /debug/events ring. Nil disables event
	// logging at zero cost.
	Events *evlog.Log
}

// Dial connects to every node address with default options. All nodes must
// expose the same vector dimensionality.
func Dial(addrs []string, timeout time.Duration) (*Coordinator, error) {
	return DialOpts(addrs, DialOptions{Timeout: timeout})
}

// DialOpts connects to every node address with explicit options.
func DialOpts(addrs []string, opts DialOptions) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distsearch: no node addresses")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	rtTimeout := opts.RoundTripTimeout
	if rtTimeout < 0 {
		rtTimeout = 0
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	co := &Coordinator{m: newCoordMetrics(reg), rec: opts.Recorder, lenient: opts.Lenient, grouped: opts.Grouped, ev: opts.Events}
	for _, addr := range addrs {
		c, err := dialNode(addr, timeout, rtTimeout, co.m, opts.Events)
		if err != nil {
			_ = co.Close()
			return nil, err
		}
		if co.dim == 0 {
			co.dim = c.dim
		} else if co.dim != c.dim {
			_ = co.Close()
			//lint:ignore errdrop dial is failing on a dim mismatch; Close is best-effort cleanup
			c.conn.Close()
			return nil, fmt.Errorf("distsearch: node %s dim %d != %d", addr, c.dim, co.dim)
		}
		co.nodes = append(co.nodes, c)
	}
	// Imbalance is computed at scrape time from the per-node deep counters:
	// max/mean load, the figure Hermes' DVFS story keys off (Fig. 13/21).
	// Crossing the event threshold (in either direction) is a lifecycle
	// edge worth a timestamped event: metrics show the ratio, the event log
	// shows when the cluster went lopsided.
	imbalance := reg.Gauge("hermes_coordinator_load_imbalance_ratio",
		"per-shard deep-search load imbalance seen by this coordinator (max/mean; 1 = perfectly balanced, 0 = no load yet)")
	var above atomic.Bool
	reg.RegisterCollector(func(*telemetry.Registry) {
		v := co.loadImbalance()
		imbalance.Set(v)
		// CompareAndSwap both races-proofs the crossing state (concurrent
		// scrapes run collectors concurrently) and dedupes the event.
		if v >= imbalanceEventThreshold && above.CompareAndSwap(false, true) {
			co.ev.Warn("load.imbalance", evlog.Float("ratio", v),
				evlog.Float("threshold", imbalanceEventThreshold))
		} else if v < imbalanceEventThreshold && above.CompareAndSwap(true, false) {
			co.ev.Info("load.balanced", evlog.Float("ratio", v))
		}
	})
	return co, nil
}

// imbalanceEventThreshold is the max/mean deep-load ratio past which the
// coordinator logs a load.imbalance event.
const imbalanceEventThreshold = 1.5

// SetRecorder points the coordinator's flight-recorder hook at rec: every
// completed Search/SearchTraced appends one QueryRecord (trace ID, total,
// per-phase/per-node spans when traced, shards deep-searched, vectors
// scanned, error). A nil rec disables recording.
func (co *Coordinator) SetRecorder(rec *telemetry.Recorder) { co.rec = rec }

// DeepLoad returns the number of deep searches sent to each connected node
// over this coordinator's lifetime, index-aligned with its node list.
func (co *Coordinator) DeepLoad() []int64 {
	out := make([]int64, len(co.nodes))
	for i, n := range co.nodes {
		out[i] = n.deepLoad.Load()
	}
	return out
}

// loadImbalance is max/mean of per-node deep-search load (0 before any
// deep search).
func (co *Coordinator) loadImbalance() float64 {
	if len(co.nodes) == 0 {
		return 0
	}
	var max, sum int64
	for _, n := range co.nodes {
		v := n.deepLoad.Load()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(co.nodes)) / float64(sum)
}

// Nodes returns the number of connected shard nodes.
func (co *Coordinator) Nodes() int { return len(co.nodes) }

// Dim returns the index dimensionality.
func (co *Coordinator) Dim() int { return co.dim }

// TotalSize sums the shard sizes reported at connect time.
func (co *Coordinator) TotalSize() int {
	total := 0
	for _, n := range co.nodes {
		total += n.size
	}
	return total
}

// Result is a distributed query outcome.
type Result struct {
	Neighbors []vec.Neighbor
	// DeepNodes lists the shard IDs deep-searched, ranked most relevant
	// first.
	DeepNodes []int
	// SampleLatency and DeepLatency are the wall times of the two phases.
	SampleLatency, DeepLatency time.Duration
	// Cost is the query's assembled resource-attribution ledger: node-side
	// cells/codes/scan-time from the wire responses plus the
	// coordinator-measured wire bytes of the round-trips that served this
	// query.
	Cost telemetry.QueryCost
}

// Search executes the hierarchical search across the cluster: scatter the
// sample request to all nodes, rank by sampled-document distance, deep-search
// the top p.DeepClusters nodes, and merge.
func (co *Coordinator) Search(q []float32, p hermes.Params) (*Result, error) {
	return co.SearchTraced(q, p, nil)
}

// SearchTraced is Search with request-scoped tracing: the trace's ID rides
// every wire request to the shard nodes, one span is recorded per
// coordinator phase (sample_scatter, rank, deep_gather), and every node
// ships its own per-phase spans (decode/probe_select/list_scan/topk_merge/
// encode) back in the response, which the coordinator stitches into the
// trace anchored at its own send time — a cross-node waterfall immune to
// clock skew. A nil trace disables tracing at zero cost. When a flight
// recorder is attached (SetRecorder), every call — traced or not — appends
// one QueryRecord.
func (co *Coordinator) SearchTraced(q []float32, p hermes.Params, tr *telemetry.Trace) (*Result, error) {
	if co.rec == nil {
		res, _, err := co.searchTraced(q, p, tr)
		return res, err
	}
	start := time.Now()
	res, scanned, err := co.searchTraced(q, p, tr)
	qr := telemetry.QueryRecord{
		TraceID: tr.ID(),
		Start:   start,
		Total:   time.Since(start),
		Scanned: scanned,
	}
	qr.Busy = qr.Total
	if qr.TraceID == 0 {
		// Untraced queries still get a unique record ID so /debug/queries
		// can address them.
		qr.TraceID = telemetry.NewTraceID()
	}
	if tr != nil {
		qr.Spans = tr.Spans()
		_, qr.Busy = telemetry.SpanTotals(qr.Spans)
	}
	if err != nil {
		qr.Err = err.Error()
	} else {
		qr.DeepNodes = res.DeepNodes
		qr.Cost = res.Cost
	}
	co.rec.Record(qr)
	return res, err
}

// stitchSpans merges node-shipped wire spans into the trace. Node offsets
// are relative to the request's arrival at the node; anchoring them at the
// coordinator's send time places them on the coordinator's clock without
// ever comparing the two machines' wall clocks (they drift into the
// outbound wire time, which shifts a node's block slightly left — never
// scrambles it).
func stitchSpans(tr *telemetry.Trace, anchor time.Time, spans []WireSpan) {
	for _, ws := range spans {
		tr.AddSpan(ws.Name, ws.Node, anchor.Add(time.Duration(ws.OffsetNanos)), time.Duration(ws.DurNanos))
	}
}

func (co *Coordinator) searchTraced(q []float32, p hermes.Params, tr *telemetry.Trace) (*Result, int64, error) {
	if len(q) != co.dim {
		return nil, 0, fmt.Errorf("distsearch: query dim %d != %d", len(q), co.dim)
	}
	if p.K <= 0 {
		p = hermes.DefaultParams()
	}
	co.m.queries.Inc()

	// Phase 1 — scatter sampling.
	type sample struct {
		node    int
		score   float32
		scanned int64
		cost    telemetry.QueryCost
		ok      bool
		err     error
	}
	endScatter := tr.StartSpan("sample_scatter")
	start := time.Now()
	samples := make([]sample, len(co.nodes))
	var wg sync.WaitGroup
	for i, n := range co.nodes {
		wg.Add(1)
		go func(i int, n *nodeClient) {
			defer wg.Done()
			sendAt := time.Now()
			resp, wire, err := n.roundTripBytes(&Request{Op: OpSample, Query: q, NProbe: p.SampleNProbe, TraceID: tr.ID()})
			if err != nil {
				samples[i] = sample{node: i, err: err}
				return
			}
			stitchSpans(tr, sendAt, resp.Spans)
			cost := telemetry.QueryCost{WireBytes: wire}
			if len(resp.Costs) > 0 {
				cost.Add(resp.Costs[0])
			}
			if len(resp.Neighbors) == 0 {
				samples[i] = sample{node: i, scanned: resp.Scanned, cost: cost}
				return
			}
			samples[i] = sample{node: i, score: resp.Neighbors[0].Score, scanned: resp.Scanned, cost: cost, ok: true}
		}(i, n)
	}
	wg.Wait()
	sampleLat := time.Since(start)
	endScatter()
	co.m.phaseSample.ObserveExemplar(sampleLat.Seconds(), tr.ID())

	var scanned int64
	var cost telemetry.QueryCost
	endRank := tr.StartSpan("rank")
	ranked := samples[:0:0]
	var firstErr error
	for _, s := range samples {
		scanned += s.scanned
		cost.Add(s.cost)
		if s.err != nil {
			if !co.lenient {
				endRank()
				return nil, scanned, s.err
			}
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		if s.ok {
			ranked = append(ranked, s)
		}
	}
	if len(ranked) == 0 {
		endRank()
		if firstErr != nil {
			return nil, scanned, fmt.Errorf("distsearch: all nodes failed: %w", firstErr)
		}
		co.m.observeCost(cost)
		return &Result{SampleLatency: sampleLat, Cost: cost}, scanned, nil
	}
	// Score, then node index: the same strict order Store.Search ranks by.
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score < ranked[j].score
		}
		return ranked[i].node < ranked[j].node
	})
	endRank()

	// Phase 2 — deep search the top clusters.
	deep := p.DeepClusters
	if deep > len(ranked) {
		deep = len(ranked)
	}
	endDeep := tr.StartSpan("deep_gather")
	deepStart := time.Now()
	type deepResult struct {
		neighbors []vec.Neighbor
		scanned   int64
		cost      telemetry.QueryCost
		err       error
	}
	deepResults := make([]deepResult, deep)
	deepNodes := make([]int, deep)
	for i := 0; i < deep; i++ {
		wg.Add(1)
		deepNodes[i] = co.nodes[ranked[i].node].shardID
		go func(slot, nodeIdx int) {
			defer wg.Done()
			sendAt := time.Now()
			resp, wire, err := co.nodes[nodeIdx].roundTripBytes(&Request{Op: OpDeep, Query: q, K: p.K, NProbe: p.DeepNProbe, TraceID: tr.ID()})
			if err != nil {
				deepResults[slot] = deepResult{err: err}
				return
			}
			stitchSpans(tr, sendAt, resp.Spans)
			dc := telemetry.QueryCost{WireBytes: wire}
			if len(resp.Costs) > 0 {
				dc.Add(resp.Costs[0])
			}
			deepResults[slot] = deepResult{neighbors: resp.Neighbors, scanned: resp.Scanned, cost: dc}
		}(i, ranked[i].node)
	}
	wg.Wait()
	deepLat := time.Since(deepStart)
	endDeep()
	co.m.phaseDeep.ObserveExemplar(deepLat.Seconds(), tr.ID())

	tk := vec.NewTopK(p.K)
	gotAny := false
	for _, dr := range deepResults {
		scanned += dr.scanned
		cost.Add(dr.cost)
		if dr.err != nil {
			if !co.lenient {
				return nil, scanned, dr.err
			}
			continue
		}
		gotAny = true
		for _, n := range dr.neighbors {
			tk.Push(n.ID, n.Score)
		}
	}
	if !gotAny && deep > 0 {
		return nil, scanned, fmt.Errorf("distsearch: every deep-search node failed")
	}
	co.m.observeCost(cost)
	return &Result{
		Neighbors:     tk.Results(),
		DeepNodes:     deepNodes,
		SampleLatency: sampleLat,
		DeepLatency:   deepLat,
		Cost:          cost,
	}, scanned, nil
}

// SearchAll deep-searches every node (the naive distributed baseline) and
// merges.
func (co *Coordinator) SearchAll(q []float32, p hermes.Params) (*Result, error) {
	if len(q) != co.dim {
		return nil, fmt.Errorf("distsearch: query dim %d != %d", len(q), co.dim)
	}
	if p.K <= 0 {
		p = hermes.DefaultParams()
	}
	start := time.Now()
	results := make([][]vec.Neighbor, len(co.nodes))
	errs := make([]error, len(co.nodes))
	var wg sync.WaitGroup
	for i, n := range co.nodes {
		wg.Add(1)
		go func(i int, n *nodeClient) {
			defer wg.Done()
			resp, err := n.roundTrip(&Request{Op: OpDeep, Query: q, K: p.K, NProbe: p.DeepNProbe})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = resp.Neighbors
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tk := vec.NewTopK(p.K)
	deepNodes := make([]int, len(co.nodes))
	for i, rs := range results {
		deepNodes[i] = co.nodes[i].shardID
		for _, n := range rs {
			tk.Push(n.ID, n.Score)
		}
	}
	return &Result{Neighbors: tk.Results(), DeepNodes: deepNodes, DeepLatency: time.Since(start)}, nil
}

// Add ingests a document into the cluster, routing it to the node whose
// shard centroid is most similar — the same rule that assigned the original
// corpus. It returns the chosen node's shard ID.
func (co *Coordinator) Add(id int64, v []float32) (int, error) {
	if len(v) != co.dim {
		return 0, fmt.Errorf("distsearch: Add dim %d != %d", len(v), co.dim)
	}
	best, bestDist := -1, float32(0)
	for i, n := range co.nodes {
		if len(n.centroid) != co.dim {
			continue
		}
		d := vec.L2Squared(v, n.centroid)
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("distsearch: no node exposes a centroid for routing")
	}
	resp, err := co.nodes[best].roundTrip(&Request{Op: OpAdd, ID: id, Query: v})
	if err != nil {
		return 0, err
	}
	return resp.ShardID, nil
}

// Remove deletes a document from whichever node holds it. It returns the
// shard ID and false if no node had the id.
func (co *Coordinator) Remove(id int64) (int, bool, error) {
	for _, n := range co.nodes {
		resp, err := n.roundTrip(&Request{Op: OpRemove, ID: id})
		if err != nil {
			if co.lenient {
				continue
			}
			return 0, false, err
		}
		if resp.OK {
			return resp.ShardID, true, nil
		}
	}
	return 0, false, nil
}

// NodeStats is one node's live serving counters plus its full telemetry
// snapshot.
type NodeStats struct {
	ShardID         int
	Size            int
	SampleServed    int64
	DeepServed      int64
	MutationsServed int64
	Tombstones      int
	// Telemetry is the node's complete metric snapshot (per-op request
	// counts, handling-time histogram quantiles, ...), keyed as
	// telemetry.Registry.Snapshot renders it. Empty when talking to a
	// pre-telemetry node.
	Telemetry map[string]float64
}

// Stats gathers serving counters from every node — the live view of the
// deep-search load imbalance (Fig. 13) on a running cluster.
func (co *Coordinator) Stats() ([]NodeStats, error) {
	out := make([]NodeStats, len(co.nodes))
	for i, n := range co.nodes {
		resp, err := n.roundTrip(&Request{Op: OpStats})
		if err != nil {
			return nil, err
		}
		out[i] = NodeStats{
			ShardID:         resp.ShardID,
			Size:            resp.Size,
			SampleServed:    resp.SampleServed,
			DeepServed:      resp.DeepServed,
			MutationsServed: resp.MutationsServed,
			Tombstones:      resp.Tombstones,
			Telemetry:       resp.Telemetry,
		}
	}
	return out, nil
}

// Compact reclaims tombstoned space on every node.
func (co *Coordinator) Compact() error {
	for _, n := range co.nodes {
		if _, err := n.roundTrip(&Request{Op: OpCompact}); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown asks every node to stop serving, then closes the connections.
func (co *Coordinator) Shutdown() error {
	var firstErr error
	for _, n := range co.nodes {
		if _, err := n.roundTrip(&Request{Op: OpShutdown}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := co.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close drops all connections without stopping the nodes. Every connection
// is closed regardless; the first close error is returned.
func (co *Coordinator) Close() error {
	var firstErr error
	for _, n := range co.nodes {
		if n == nil {
			continue
		}
		if err := n.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
