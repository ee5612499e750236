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

// nodeClient is one node's connection, shared by every goroutine that talks
// to the node, with several exchanges in flight on it at once. send writes a
// request frame under the write lock and queues a call; the node answers a
// connection's requests in order, so recv completes calls from the head of
// the queue. There is no reader goroutine: whoever holds the connection's
// read lock reads frames and completes the oldest call with each until its
// own call is done, so a lone exchange reads its own response.
type nodeClient struct {
	addr string

	// mu is the write lock: it guards conn, broken, wbuf and lastID. It is
	// never held with a conn.rmu; either may be held while taking conn.mu.
	mu   sync.Mutex
	conn *conn
	// broken makes the next send redial: the client was closed or the last
	// redial failed. A poisoned conn does too (writeLocked refuses it).
	broken bool
	// wbuf is the request frame, reused at the largest frame seen; lastID is
	// the ID of the latest request, which its response must echo.
	wbuf   []byte
	lastID uint64

	// dialTimeout bounds the TCP dial and the OpInfo handshake, for both
	// the initial connect and lazy redials. rtTimeout, when positive,
	// bounds each exchange from its own send: its write and the reads made
	// for it run under that deadline, so a hung node surfaces as a timeout
	// error instead of stalling the coordinator forever.
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
	// ids is the Bloom filter of the ids the node holds, as far as this
	// coordinator knows (see idFilter): the node's own from the latest
	// handshake, plus every id this coordinator's Add has routed there
	// since. A redial replaces it.
	ids atomic.Pointer[idFilter]

	// deepLoad counts deep searches sent to this node over the client's
	// lifetime — the coordinator-side view of per-shard load, feeding the
	// imbalance gauge and the DVFS energy collector.
	deepLoad atomic.Int64
}

// conn is one TCP connection and the calls written on it. A call stays bound
// to its conn, so a redial never disturbs a reader still draining the old
// one.
type conn struct {
	nc  net.Conn
	wdl time.Time // write deadline in force, guarded by nodeClient.mu

	// rmu is the read lock. Its holder reads frames through br into rbuf
	// (reused at the largest frame seen) under the read deadline rdl.
	rmu  sync.Mutex
	br   *bufio.Reader
	rbuf []byte
	rdl  time.Time

	// mu guards calls, the requests written and not yet done in write
	// order, and err, why the connection was poisoned. After a failure the
	// stream position is unknown (a node still answers a timed-out request
	// late), so the socket is closed, every queued call fails with err, and
	// the next send redials.
	mu    sync.Mutex
	calls []*call
	err   error
}

// call is one exchange: a request written to a node and, once done, its
// response or error.
type call struct {
	conn       *conn // nil when send failed before writing
	op         Op
	id         uint64
	traceID    uint64
	start      time.Time
	deadline   time.Time
	queries    int
	sent, recv int64 // exact frame bytes, the query ledger's WireBytes

	// done, resp and err are set under conn.rmu.
	done bool
	resp *Response
	err  error
}

// lateReadGrace bounds the read for a call whose deadline passed while the
// reader was busy with an earlier node of its wave: a response that has
// already arrived is still taken, one that has not fails the call.
const lateReadGrace = time.Millisecond

func dialNode(addr string, timeout, rtTimeout time.Duration, cm *coordMetrics, ev *evlog.Log) (*nodeClient, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		ev.Warn("node.dial", evlog.Str("addr", addr), evlog.Err(err))
		return nil, fmt.Errorf("distsearch: dial %s: %w", addr, err)
	}
	c := &nodeClient{addr: addr, conn: newConn(nc), dialTimeout: timeout, rtTimeout: rtTimeout, cm: cm, ev: ev}
	// No per-node counter sees the handshake's bytes: the shard ID is not
	// known yet. A node of another wire version fails it, naming both.
	info, err := c.handshake(c.conn)
	if err != nil {
		c.fail(c.conn, err)
		return nil, fmt.Errorf("distsearch: handshake with %s: %w", addr, err)
	}
	c.shardID, c.size, c.dim, c.centroid = info.ShardID, info.Size, info.Dim, info.Centroid
	c.ids.Store(&idFilter{words: info.IDFilter})
	c.met = newClientMetrics(cm.reg, c.shardID)
	ev.Info("node.dial", evlog.Str("addr", addr), evlog.Int("shard", int64(c.shardID)))
	return c, nil
}

func newConn(nc net.Conn) *conn { return &conn{nc: nc, br: bufio.NewReader(nc)} }

// roundTrip is one exchange: send, then recv.
func (c *nodeClient) roundTrip(req *Request) (*Response, error) {
	return c.recv(c.send(req))
}

// send writes req to the node and returns its call, which the caller must
// pass to recv. Each call counts into the per-op request counter and the
// in-flight gauge. A broken connection is first replaced by a fresh dial
// whose handshake has passed. A call that cannot be written comes back
// already failed.
func (c *nodeClient) send(req *Request) *call {
	cl := &call{op: req.Op, traceID: req.TraceID, start: now(), queries: len(req.Queries)}
	c.cm.opCounter(req.Op).Inc()
	switch req.Op {
	case OpDeep:
		c.deepLoad.Add(1)
		c.met.deepTotal.Inc()
	case OpDeepBatch:
		c.deepLoad.Add(int64(cl.queries))
		c.met.deepTotal.Add(int64(cl.queries))
	}
	c.cm.inflight.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore lockheldio the write lock keeps each frame whole on the socket and the queue in write order
	if c.broken || !c.writeLocked(cl, req) {
		//lint:ignore lockheldio one redial at a time: senders wait on the write lock until the new connection is dialed and its handshake answered
		if err := c.redialLocked(); err != nil {
			cl.err = fmt.Errorf("distsearch: reconnect %s: %w", c.addr, err)
			return cl
		}
		// No other goroutine has seen the new connection, so it cannot be
		// poisoned yet and the write queues cl.
		//lint:ignore lockheldio the write lock keeps each frame whole on the socket and the queue in write order
		c.writeLocked(cl, req)
	}
	return cl
}

// redialLocked replaces a broken connection with a fresh dial, published only
// once its handshake has passed, so no request reaches a node that fails it.
// A node presenting another shard ID or dimensionality fails it: the cluster
// changed, and the routing state (centroids, metric labels) would lie.
func (c *nodeClient) redialLocked() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err == nil {
		pc := newConn(nc)
		info, herr := c.handshake(pc)
		if err = herr; err == nil && (info.ShardID != c.shardID || info.Dim != c.dim) {
			err = fmt.Errorf("node changed identity: shard %d dim %d, was shard %d dim %d", info.ShardID, info.Dim, c.shardID, c.dim)
		}
		if err == nil {
			c.conn, c.broken, c.size, c.centroid = pc, false, info.Size, info.Centroid
			c.ids.Store(&idFilter{words: info.IDFilter})
			c.ev.Info("node.redial", evlog.Int("shard", int64(c.shardID)), evlog.Str("addr", c.addr))
			return nil
		}
		c.fail(pc, err)
	}
	c.broken = true
	c.ev.Warn("node.redial", evlog.Int("shard", int64(c.shardID)), evlog.Str("addr", c.addr), evlog.Err(err))
	return err
}

// handshake runs the OpInfo exchange on pc, which no other goroutine can see
// yet, under the dial timeout, and returns the node's answer, which is only
// valid without an error.
func (c *nodeClient) handshake(pc *conn) (*Response, error) {
	dl := now().Add(c.dialTimeout)
	if err := pc.nc.SetDeadline(dl); err != nil {
		return nil, err
	}
	pc.wdl, pc.rdl = dl, dl
	c.lastID++
	c.wbuf = appendRequest(c.wbuf[:0], c.lastID, &Request{Op: OpInfo})
	n, err := pc.nc.Write(c.wbuf)
	c.met.sent.Add(int64(n))
	var info *Response
	if err == nil {
		info, _, err = c.readResponse(pc, OpInfo, c.lastID)
	}
	// The answer carries the id filter, two bytes per id, and has been
	// decoded out of the read buffer: the connection does not keep a buffer
	// of that size.
	pc.rbuf = nil
	if err == nil && info.Err != "" {
		err = fmt.Errorf("handshake rejected: %s", info.Err)
	}
	return info, err
}

// writeLocked queues cl on the current connection and writes its request
// frame with one Write, under cl's deadline. It reports false, writing
// nothing, when the connection is already poisoned. A failed write poisons
// the connection, which fails cl when its owner receives it.
func (c *nodeClient) writeLocked(cl *call, req *Request) bool {
	pc := c.conn
	if c.rtTimeout > 0 {
		cl.deadline = now().Add(c.rtTimeout)
	}
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return false
	}
	c.lastID++
	cl.conn, cl.id = pc, c.lastID
	//lint:ignore chanbound bounded by the callers in flight: each caller has at most one call per node outstanding (a wave sends one request per node and receives it before the next wave)
	pc.calls = append(pc.calls, cl)
	pc.mu.Unlock()
	c.wbuf = appendRequest(c.wbuf[:0], cl.id, req)
	var err error
	if cl.deadline != pc.wdl {
		err = pc.nc.SetWriteDeadline(cl.deadline)
		pc.wdl = cl.deadline
	}
	if err == nil {
		var n int
		n, err = pc.nc.Write(c.wbuf)
		cl.sent = int64(n)
		c.met.sent.Add(cl.sent)
	}
	if err != nil {
		c.fail(pc, fmt.Errorf("distsearch: send to %s: %w", c.addr, err))
	}
	return true
}

// recv waits for cl's response and accounts the exchange: the in-flight
// gauge, the round-trip histogram (from send until the coordinator reads the
// response; a wave reads its responses in order), and the node's reported
// handling time. A node's error answer, or a batch answer without exactly
// one result and one cost entry per query sent, fails the exchange but
// leaves the connection, which is still in step.
func (c *nodeClient) recv(cl *call) (*Response, error) {
	if pc := cl.conn; pc != nil {
		pc.rmu.Lock()
		for !cl.done {
			//lint:ignore lockheldio the read lock lets one reader at a time pair frames with queued calls; a waiter blocks on it until its own call is done
			c.readLocked(pc)
		}
		pc.rmu.Unlock()
	}
	c.cm.inflight.Dec()
	// Timed by hand rather than via Timer() so a traced request pins its
	// trace ID as the round-trip bucket's exemplar.
	c.met.roundTrip.ObserveExemplar(now().Sub(cl.start).Seconds(), cl.traceID)
	resp, err := cl.resp, cl.err
	if err == nil {
		if resp.ServerNanos > 0 {
			c.met.compute.ObserveDuration(time.Duration(resp.ServerNanos))
		}
		if resp.Err != "" {
			err = fmt.Errorf("distsearch: node %s: %s", c.addr, resp.Err)
		} else if (cl.op == OpSampleBatch || cl.op == OpDeepBatch) && (len(resp.Batch) != cl.queries || len(resp.Costs) != cl.queries) {
			err = fmt.Errorf("distsearch: node %s answered a batch of %d queries with %d results and %d cost entries",
				c.addr, cl.queries, len(resp.Batch), len(resp.Costs))
		}
	}
	if err != nil {
		c.cm.errors.Inc()
		return nil, err
	}
	return resp, nil
}

// readLocked reads the next frame on pc and completes the oldest queued call
// with it. Any transport failure — a damaged frame or one that does not echo
// the call's op and ID — poisons pc; on a poisoned pc every queued call fails.
func (c *nodeClient) readLocked(pc *conn) {
	pc.mu.Lock()
	head, err := pc.calls[0], pc.err
	pc.mu.Unlock()
	if err == nil {
		dl := head.deadline
		if !dl.IsZero() && !dl.After(now()) {
			dl = now().Add(lateReadGrace)
		}
		if dl != pc.rdl {
			err = pc.nc.SetReadDeadline(dl)
			pc.rdl = dl
		}
		if err == nil {
			head.resp, head.recv, err = c.readResponse(pc, head.op, head.id)
		}
		if err == nil {
			pc.mu.Lock()
			n := copy(pc.calls, pc.calls[1:])
			pc.calls[n] = nil
			pc.calls = pc.calls[:n]
			pc.mu.Unlock()
			head.done = true
			return
		}
		c.fail(pc, fmt.Errorf("distsearch: recv from %s: %w", c.addr, err))
	}
	pc.mu.Lock()
	calls, err := pc.calls, pc.err
	pc.calls = nil
	pc.mu.Unlock()
	for _, q := range calls {
		q.done, q.err = true, err
	}
}

// readResponse reads the next frame on pc, which must answer the request
// (op, id), and returns it with its size in bytes.
func (c *nodeClient) readResponse(pc *conn, op Op, id uint64) (*Response, int64, error) {
	h, body, err := readFrame(pc.br, pc.rbuf)
	if pc.rbuf = body; err != nil {
		return nil, 0, err
	}
	n := int64(headerSize + len(body))
	c.met.recv.Add(n)
	if h.op != op || h.id != id {
		return nil, n, fmt.Errorf("response (op %d, id %d) does not answer request (op %d, id %d)", h.op, h.id, op, id)
	}
	resp := new(Response)
	return resp, n, decodeResponse(op, body, resp)
}

// fail poisons pc with err, once: the first failure records its events —
// an I/O timeout also counts as a deadline hit — and closes the socket, so
// a stale late reply cannot be taken for the answer to a later request.
func (c *nodeClient) fail(pc *conn, err error) {
	if !pc.poison(err) {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.cm.deadlineHits.Inc()
		c.ev.Warn("deadline.hit", evlog.Int("shard", int64(c.shardID)),
			evlog.Str("addr", c.addr), evlog.Dur("timeout", c.rtTimeout))
	}
	c.ev.Warn("conn.poisoned", evlog.Int("shard", int64(c.shardID)),
		evlog.Str("addr", c.addr), evlog.Err(err))
	//lint:ignore errdrop the connection is being abandoned; Close is best-effort
	pc.nc.Close()
}

// poison records err as pc's failure unless one is recorded already, and
// reports whether it did.
func (pc *conn) poison(err error) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return false
	}
	pc.err = err
	return true
}

// close shuts down the client's connection; a connection already poisoned
// reports success. The next send redials.
func (c *nodeClient) close() error {
	c.mu.Lock()
	pc, broken := c.conn, c.broken
	c.broken = true
	c.mu.Unlock()
	if broken || !pc.poison(errors.New("distsearch: connection closed")) {
		return nil
	}
	return pc.nc.Close()
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
	// release removes the scrape-time collectors registered for this
	// coordinator, which close over it; Close runs them, so a closed
	// coordinator is neither kept reachable nor called by its registry.
	release []func()
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
			c.conn.nc.Close()
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
	co.release = append(co.release, reg.RegisterCollector(func(*telemetry.Registry) {
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
	}))
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
	p = p.WithDefaults()
	co.m.queries.Inc()

	// Phase 1 — scatter sampling.
	type sample struct {
		node  int
		score float32
	}
	endScatter := tr.StartSpan("sample_scatter")
	start := time.Now()
	calls := scatter(co.nodes, &Request{Op: OpSample, Query: q, NProbe: p.SampleNProbe, TraceID: tr.ID()})
	var scanned int64
	var cost telemetry.QueryCost
	// fold adds one exchange's node spans, scanned count and cost to the
	// query's.
	fold := func(cl *call, resp *Response) {
		stitchSpans(tr, cl.start, resp.Spans)
		scanned += resp.Scanned
		cost.WireBytes += cl.sent + cl.recv
		if len(resp.Costs) > 0 {
			cost.Add(resp.Costs[0])
		}
	}
	ranked := make([]sample, 0, len(co.nodes))
	firstErr := gather(co.nodes, calls, func(i int, cl *call, resp *Response) {
		fold(cl, resp)
		if len(resp.Neighbors) > 0 {
			ranked = append(ranked, sample{node: i, score: resp.Neighbors[0].Score})
		}
	})
	sampleLat := time.Since(start)
	endScatter()
	co.m.phaseSample.ObserveExemplar(sampleLat.Seconds(), tr.ID())

	endRank := tr.StartSpan("rank")
	if firstErr != nil && !co.lenient {
		endRank()
		return nil, scanned, firstErr
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

	// Phase 2 — deep search the top clusters, cut as Store.Search cuts them
	// once a shard's sample exceeds (1+PruneEps) of the best one.
	deep := min(p.DeepClusters, len(ranked))
	for i := 1; i < deep; i++ {
		if p.PruneEps > 0 && float64(ranked[i].score) > (1+p.PruneEps)*float64(ranked[0].score) {
			deep = i
			break
		}
	}
	endDeep := tr.StartSpan("deep_gather")
	deepStart := time.Now()
	deepClients := make([]*nodeClient, deep)
	deepNodes := make([]int, deep)
	for i, r := range ranked[:deep] {
		deepClients[i] = co.nodes[r.node]
		deepNodes[i] = deepClients[i].shardID
	}
	calls = scatter(deepClients, &Request{Op: OpDeep, Query: q, K: p.K, NProbe: p.DeepNProbe, TraceID: tr.ID()})
	tk := vec.NewTopK(p.K)
	gotAny := false
	err := gather(deepClients, calls, func(_ int, cl *call, resp *Response) {
		fold(cl, resp)
		gotAny = true
		for _, n := range resp.Neighbors {
			tk.Push(n.ID, n.Score)
		}
	})
	deepLat := time.Since(deepStart)
	endDeep()
	co.m.phaseDeep.ObserveExemplar(deepLat.Seconds(), tr.ID())
	if err != nil && !co.lenient {
		return nil, scanned, err
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

// scatter sends req to every node from the calling goroutine and returns the
// calls in node order, for gather.
func scatter(nodes []*nodeClient, req *Request) []*call {
	calls := make([]*call, len(nodes))
	for i, n := range nodes {
		calls[i] = n.send(req)
	}
	return calls
}

// gather receives a wave's calls in order on the calling goroutine, handing
// each response to got and skipping nil calls. It returns the first failed
// exchange's error.
func gather(nodes []*nodeClient, calls []*call, got func(i int, cl *call, resp *Response)) error {
	var first error
	for i, cl := range calls {
		if cl == nil {
			continue
		}
		resp, err := nodes[i].recv(cl)
		if err == nil {
			got(i, cl, resp)
		} else if first == nil {
			first = err
		}
	}
	return first
}

// SearchAll deep-searches every node (the naive distributed baseline) and
// merges.
func (co *Coordinator) SearchAll(q []float32, p hermes.Params) (*Result, error) {
	if len(q) != co.dim {
		return nil, fmt.Errorf("distsearch: query dim %d != %d", len(q), co.dim)
	}
	p = p.WithDefaults()
	start := time.Now()
	calls := scatter(co.nodes, &Request{Op: OpDeep, Query: q, K: p.K, NProbe: p.DeepNProbe})
	tk := vec.NewTopK(p.K)
	if err := gather(co.nodes, calls, func(_ int, _ *call, resp *Response) {
		for _, nb := range resp.Neighbors {
			tk.Push(nb.ID, nb.Score)
		}
	}); err != nil {
		return nil, err
	}
	deepNodes := make([]int, len(co.nodes))
	for i, n := range co.nodes {
		deepNodes[i] = n.shardID
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
	n := co.nodes[best]
	resp, err := n.roundTrip(&Request{Op: OpAdd, ID: id, Query: v})
	if err != nil {
		return 0, err
	}
	n.ids.Load().add(id)
	return resp.ShardID, nil
}

// Remove deletes a document from whichever node holds it. It returns the
// shard ID and false if no node had the id. It asks one node at a time:
// first, in node order, the nodes whose id filter may hold the id, then, only
// if none of them had it, the others in node order. An id that one node
// holds is therefore removed in one exchange plus the filters' false
// positives, with the answer of a walk over every node in node order; an id
// the filters miss (one another coordinator added) is still found, and an
// absent id costs one exchange per node. A node that fails is skipped when
// the coordinator is lenient and fails the Remove otherwise.
func (co *Coordinator) Remove(id int64) (int, bool, error) {
	asked := make([]bool, len(co.nodes))
	for _, filtered := range [...]bool{true, false} {
		for i, n := range co.nodes {
			if asked[i] || filtered && !n.ids.Load().mayHold(id) {
				continue
			}
			asked[i] = true
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

// Close drops all connections without stopping the nodes and removes the
// coordinator's scrape-time collectors from its registry. Every connection
// is closed regardless; the first close error is returned.
func (co *Coordinator) Close() error {
	for _, remove := range co.release {
		remove()
	}
	co.release = nil
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
