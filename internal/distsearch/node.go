package distsearch

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evlog"
	"repro/internal/ivf"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Node serves one shard's IVF index over TCP.
type Node struct {
	shardID int
	index   *ivf.Index
	ln      net.Listener
	logger  *log.Logger
	met     *nodeMetrics
	ev      *evlog.Log

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// idxMu guards the shard index: searches share a read lock, OpAdd and
	// OpRemove take the write lock (ivf.Index permits concurrent reads but
	// not read/write races).
	idxMu sync.RWMutex
	// searchers recycles the executors of the search ops across requests.
	searchers sync.Pool

	// Served-request counters (atomic).
	sampleServed, deepServed, mutationsServed int64
}

// NewNode wraps a trained shard index. The logger may be nil to discard
// diagnostics.
func NewNode(shardID int, index *ivf.Index, logger *log.Logger) (*Node, error) {
	if index == nil || !index.Trained() {
		return nil, fmt.Errorf("distsearch: node %d requires a trained index", shardID)
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Node{
		shardID: shardID,
		index:   index,
		logger:  logger,
		met:     newNodeMetrics(telemetry.Default, shardID, index.QuantizerName()),
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

// SetTelemetry points the node's metrics at reg instead of the process
// default registry. Call before Listen; a nil reg disables node telemetry.
func (n *Node) SetTelemetry(reg *telemetry.Registry) {
	n.met = newNodeMetrics(reg, n.shardID, n.index.QuantizerName())
}

// SetEvents attaches a structured event log recording connection lifecycle
// edges (accept, close, decode/encode failures). Call before Listen; a nil
// log (the default) disables event recording at zero cost.
func (n *Node) SetEvents(ev *evlog.Log) { n.ev = ev }

// Listen binds the node to addr ("127.0.0.1:0" for an ephemeral port) and
// starts the accept loop in a background goroutine.
func (n *Node) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("distsearch: node %d listen: %w", n.shardID, err)
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return nil
}

// Addr returns the bound address; Listen must have succeeded.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ShardID returns the node's shard identifier.
func (n *Node) ShardID() int { return n.shardID }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if !n.isClosed() {
				n.logger.Printf("node %d accept: %v", n.shardID, err)
			}
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.ev.Info("conn.accept", evlog.Int("shard", int64(n.shardID)), evlog.Str("remote", conn.RemoteAddr().String()))
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		_ = conn.Close()
		n.ev.Info("conn.close", evlog.Int("shard", int64(n.shardID)), evlog.Str("remote", conn.RemoteAddr().String()))
	}()
	// Requests are answered in order. The coordinator pipelines them, so
	// the reader may already hold the next request's bytes; both buffers
	// are still reused, each at the largest frame seen.
	br := bufio.NewReader(conn)
	var in, out []byte
	for {
		// The decode span starts when the request's first bytes arrive.
		_, err := br.Peek(1)
		arrival := now()
		var h frameHeader
		if err == nil {
			h, in, err = readFrame(br, in)
		}
		var req Request
		if err == nil {
			err = decodeRequest(h.op, in, &req)
		} else if !errors.Is(err, errChecksum) {
			// The framing is lost. A peer of another version still gets an
			// answer it can read the version from.
			var ve *versionError
			if errors.As(err, &ve) {
				out = appendResponse(out[:0], h.id, h.op, &Response{Err: fmt.Sprintf("node %d: %v", n.shardID, err)}, time.Time{})
				_, _ = conn.Write(out)
			}
			if !errors.Is(err, io.EOF) && !n.isClosed() {
				n.logger.Printf("node %d decode: %v", n.shardID, err)
				n.ev.Warn("conn.decode_error", evlog.Int("shard", int64(n.shardID)), evlog.Err(err))
			}
			return
		}
		start := now()
		var resp *Response
		if err != nil {
			// A damaged body inside intact framing: answer it, keep serving.
			resp = &Response{Err: fmt.Sprintf("node %d: %v", n.shardID, err)}
		} else {
			resp = n.handleRecovered(&req, arrival, start)
		}
		served := now().Sub(start)
		resp.ServerNanos = served.Nanoseconds()
		n.met.observe(req.Op, served, req.TraceID)
		// A traced response times its own encode: the encode span is the
		// last one, and the encoder writes its duration last.
		var encStart time.Time
		if req.TraceID != 0 && len(resp.Spans) > 0 {
			encStart = now()
			resp.Spans = append(resp.Spans, WireSpan{Name: "encode", Node: n.shardID, OffsetNanos: encStart.Sub(arrival).Nanoseconds()})
		}
		out = appendResponse(out[:0], h.id, h.op, resp, encStart)
		if _, err := conn.Write(out); err != nil {
			if !n.isClosed() {
				n.logger.Printf("node %d write: %v", n.shardID, err)
				n.ev.Warn("conn.encode_error", evlog.Int("shard", int64(n.shardID)), evlog.Err(err))
			}
			return
		}
		if req.Op == OpShutdown {
			go n.Close()
			return
		}
		if h.op == OpInfo {
			// The handshake's answer carries the id filter, two bytes per
			// id: the connection keeps no write buffer of that size.
			out = nil
		}
	}
}

// Request bounds. A shard's live count already caps what a search can return
// (ivf clamps k to it), so these only stop a peer from asking for work no
// deployment sends: the paper's K is 5, its deepest nProbe 128, and the
// batcher closes batches at tens of queries.
const (
	maxRequestK      = 1 << 16
	maxRequestNProbe = 1 << 20
	maxRequestBatch  = 1 << 12
)

// validate is the one place a decoded request's numbers are checked before
// they size or steer anything: k, nProbe and the batch length must be
// positive and bounded, vectors must match the index dimension and hold only
// finite components (a NaN poisons every distance it touches and breaks the
// top-k order). It returns the error text for Response.Err, or "".
func (n *Node) validate(req *Request) string {
	dim := n.index.Dim()
	fail := func(format string, args ...any) string {
		return fmt.Sprintf("node %d: ", n.shardID) + fmt.Sprintf(format, args...)
	}
	switch req.Op {
	case OpSample, OpDeep, OpSampleBatch, OpDeepBatch:
	case OpAdd:
		if p := vecProblem(req.Query, dim); p != "" {
			return fail("add %s", p)
		}
		return ""
	default:
		return ""
	}
	if deep := req.Op == OpDeep || req.Op == OpDeepBatch; deep && (req.K <= 0 || req.K > maxRequestK) {
		return fail("k %d outside [1, %d]", req.K, maxRequestK)
	}
	if req.NProbe <= 0 || req.NProbe > maxRequestNProbe {
		return fail("nprobe %d outside [1, %d]", req.NProbe, maxRequestNProbe)
	}
	if req.Op == OpSample || req.Op == OpDeep {
		if p := vecProblem(req.Query, dim); p != "" {
			return fail("query %s", p)
		}
		return ""
	}
	if len(req.Queries) == 0 || len(req.Queries) > maxRequestBatch {
		return fail("batch of %d queries outside [1, %d]", len(req.Queries), maxRequestBatch)
	}
	for i, q := range req.Queries {
		if p := vecProblem(q, dim); p != "" {
			return fail("batch query %d %s", i, p)
		}
	}
	return ""
}

// vecProblem says why v cannot be scored against (or stored in) a
// dim-dimensional index, or "" when it can.
func vecProblem(v []float32, dim int) string {
	if len(v) != dim {
		return fmt.Sprintf("dim %d != %d", len(v), dim)
	}
	for i, x := range v {
		if x-x != 0 { // NaN or ±Inf
			return fmt.Sprintf("component %d is not finite", i)
		}
	}
	return ""
}

// handleRecovered is handle with a last line of defence: a panic while
// serving one request (a bug — validate rejects what a peer can cause)
// becomes that request's error response instead of taking down the node and
// every other connection with it. handle's deferred unlocks have run by the
// time the panic arrives here.
func (n *Node) handleRecovered(req *Request, arrival, decodeDone time.Time) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			n.logger.Printf("node %d: panic serving op %d: %v\n%s", n.shardID, req.Op, r, debug.Stack())
			n.ev.Error("node.panic", evlog.Int("shard", int64(n.shardID)), evlog.Int("op", int64(req.Op)), evlog.Str("panic", fmt.Sprint(r)))
			resp = &Response{Err: fmt.Sprintf("node %d: internal error serving op %d: %v", n.shardID, req.Op, r)}
		}
	}()
	return n.handle(req, arrival, decodeDone)
}

func (n *Node) handle(req *Request, arrival, decodeDone time.Time) *Response {
	if msg := n.validate(req); msg != "" {
		return &Response{Err: msg}
	}
	switch req.Op {
	case OpAdd, OpRemove, OpCompact:
		n.idxMu.Lock()
		defer n.idxMu.Unlock()
	default:
		n.idxMu.RLock()
		defer n.idxMu.RUnlock()
	}
	switch req.Op {
	case OpInfo:
		return &Response{ShardID: n.shardID, Size: n.index.Len(), Dim: n.index.Dim(), Centroid: n.meanCentroid(), IDFilter: n.idFilter()}
	case OpSample, OpDeep, OpSampleBatch, OpDeepBatch:
		return n.search(req, arrival, decodeDone)
	case OpAdd:
		if err := n.index.Add(req.ID, req.Query); err != nil {
			return &Response{Err: err.Error()}
		}
		atomic.AddInt64(&n.mutationsServed, 1)
		return &Response{ShardID: n.shardID, OK: true}
	case OpRemove:
		atomic.AddInt64(&n.mutationsServed, 1)
		return &Response{ShardID: n.shardID, OK: n.index.Remove(req.ID)}
	case OpStats:
		return &Response{
			ShardID:         n.shardID,
			Size:            n.index.Len(),
			SampleServed:    atomic.LoadInt64(&n.sampleServed),
			DeepServed:      atomic.LoadInt64(&n.deepServed),
			MutationsServed: atomic.LoadInt64(&n.mutationsServed),
			Tombstones:      n.index.Tombstones(),
			Telemetry:       n.met.reg.Snapshot(),
		}
	case OpMetricsSnap:
		return &Response{ShardID: n.shardID, Families: n.met.reg.Export()}
	case OpCompact:
		n.index.Compact()
		return &Response{ShardID: n.shardID, OK: true}
	case OpShutdown:
		return &Response{ShardID: n.shardID}
	default:
		return &Response{Err: fmt.Sprintf("node %d: unknown op %d", n.shardID, req.Op)}
	}
}

// meanCentroid averages the shard's coarse centroids — the routing key the
// coordinator uses for ingest.
func (n *Node) meanCentroid() []float32 {
	out := make([]float32, n.index.Dim())
	for c := 0; c < n.index.NList(); c++ {
		vec.Add(out, n.index.Centroid(c))
	}
	vec.Scale(out, 1/float32(n.index.NList()))
	return out
}

// idFilter builds the Bloom filter of the shard's live ids that OpInfo
// ships, for the coordinator to route Remove by.
func (n *Node) idFilter() []uint64 {
	f := newIDFilter(n.index.Len())
	n.index.EachID(f.add)
	return f.words
}

// search serves the four search ops through one ivf executor. A grouped
// batch runs as one batch: queries probing the same IVF cell share one code
// stream, Scanned reports the vectors actually streamed (distinct), and the
// ledger attributes that traffic back to the member queries (exclusive vs
// amortized, summing exactly to Scanned). Otherwise every query runs as its
// own batch of one: Scanned is the sum of the solo scans, every code is
// exclusive, and the shard's scan histogram is observed per query. A traced
// request times the batches into one phase breakdown, shipped as one
// probe_select/list_scan/topk_merge span sequence; a solo query's ScanNanos
// is its own measured list-scan time, a grouped query's its
// codes-proportional share of the batch's. A single op answers in
// Neighbors, a batch op in Batch.
func (n *Node) search(req *Request, arrival, decodeDone time.Time) *Response {
	single := req.Op == OpSample || req.Op == OpDeep
	queries := req.Queries
	var one [1][]float32
	if single {
		one[0] = req.Query
		queries = one[:]
	}
	k, served := req.K, &n.deepServed
	if req.Op == OpSample || req.Op == OpSampleBatch {
		k, served = 1, &n.sampleServed
	}
	atomic.AddInt64(served, int64(len(queries)))
	// Grouping applies to batch ops; a single op is a batch of one anyway.
	grouped := req.Grouped && !single
	step := 1
	if grouped {
		step = len(queries)
	}

	s, _ := n.searchers.Get().(*ivf.Searcher)
	if s == nil {
		s = n.index.NewSearcher()
	}
	defer n.searchers.Put(s)
	var ph ivf.PhaseNanos
	var timed *ivf.PhaseNanos
	scanStart := decodeDone
	if req.TraceID != 0 {
		timed, scanStart = &ph, now()
	}
	resp := &Response{ShardID: n.shardID, Costs: make([]telemetry.QueryCost, len(queries))}
	if !single {
		resp.Batch = make([][]vec.Neighbor, len(queries))
	}
	// An ungrouped query's scan is timed on its own; a nil histogram (no
	// telemetry) reads no clock.
	scanHist := n.met.scanSeconds
	if grouped {
		scanHist = nil
	}
	for b := 0; b < len(queries); b += step {
		var t0 time.Time
		if scanHist != nil {
			t0 = now()
		}
		scan0 := ph.Scan
		st := s.SearchGroup(queries[b:b+step], k, req.NProbe, timed)
		if scanHist != nil {
			scanHist.ObserveDuration(now().Sub(t0))
		}
		resp.Scanned += int64(st.VectorsScanned)
		for i := 0; i < step; i++ {
			if single {
				resp.Neighbors = s.AppendResults(i, nil)
			} else {
				resp.Batch[b+i] = s.AppendResults(i, nil)
			}
			c := s.CostStats(i)
			resp.Costs[b+i] = telemetry.QueryCost{
				Cells:          int64(c.CellsProbed),
				SharedCells:    int64(c.SharedCells),
				CodesExclusive: c.CodesExclusive,
				CodesAmortized: c.CodesAmortized,
			}
			if !grouped {
				resp.Costs[b+i].ScanNanos = ph.Scan - scan0
			}
		}
		if grouped {
			n.met.groupscanQueries.Add(int64(len(queries)))
			n.met.groupscanShared.Add(int64(st.SharedCellScans))
		}
	}
	if grouped && ph.Scan > 0 {
		weights := make([]int64, len(resp.Costs))
		for i := range resp.Costs {
			weights[i] = resp.Costs[i].Codes()
		}
		for i, share := range telemetry.AttributeTotal(ph.Scan, weights) {
			resp.Costs[i].ScanNanos = share
		}
	}
	if timed != nil {
		resp.Spans = n.tracedSpans(arrival, decodeDone, scanStart, ph)
	}
	return resp
}

// tracedSpans lays the node-side phases out as wire spans with offsets
// relative to the request's wire arrival: decode, then (from scanStart,
// which also covers any index-lock wait) probe_select, list_scan, and
// topk_merge back to back. serveConn appends the encode span, timed by the
// encoder itself, into the spare capacity.
func (n *Node) tracedSpans(arrival, decodeDone, scanStart time.Time, ph ivf.PhaseNanos) []WireSpan {
	sel := scanStart.Sub(arrival).Nanoseconds()
	scan := sel + ph.Select
	merge := scan + ph.Scan
	return append(make([]WireSpan, 0, 5),
		WireSpan{Name: "decode", Node: n.shardID, OffsetNanos: 0, DurNanos: decodeDone.Sub(arrival).Nanoseconds()},
		WireSpan{Name: "probe_select", Node: n.shardID, OffsetNanos: sel, DurNanos: ph.Select},
		WireSpan{Name: "list_scan", Node: n.shardID, OffsetNanos: scan, DurNanos: ph.Scan},
		WireSpan{Name: "topk_merge", Node: n.shardID, OffsetNanos: merge, DurNanos: ph.Merge},
	)
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Close stops the listener, closes live connections, and waits for handler
// goroutines to drain. Safe to call multiple times.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	var err error
	if n.ln != nil {
		err = n.ln.Close()
	}
	for _, c := range conns {
		// Force-closing a live connection races benignly with the peer
		// hanging up first; that error carries no signal.
		_ = c.Close()
	}
	n.wg.Wait()
	return err
}
