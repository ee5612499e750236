package distsearch

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// telemetryCluster is cluster() with an isolated registry on both sides so
// assertions see exactly this test's traffic.
func telemetryCluster(t testing.TB, chunks, shards int) (*Coordinator, *corpus.Corpus, *telemetry.Registry) {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{NumChunks: chunks, Dim: 16, NumTopics: shards, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var nodes []*Node
	var addrs []string
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		node.SetTelemetry(reg)
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		addrs = append(addrs, node.Addr())
	}
	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := co.Close(); err != nil {
			t.Errorf("close coordinator: %v", err)
		}
		for _, n := range nodes {
			if err := n.Close(); err != nil {
				t.Errorf("close node: %v", err)
			}
		}
	})
	return co, c, reg
}

// TestTracedQueryProducesOneSpanPerPhase is the end-to-end tracing test: a
// traced query records exactly one span per coordinator phase plus the full
// set of node-shipped spans from every contacted shard, and the trace ID
// demonstrably reaches every shard node over the wire.
func TestTracedQueryProducesOneSpanPerPhase(t *testing.T) {
	const shards = 4
	co, c, reg := telemetryCluster(t, 1200, shards)
	qs := c.Queries(1, 11)
	p := hermes.DefaultParams()

	tr := telemetry.NewTrace()
	res, err := co.SearchTraced(qs.Vectors.Row(0), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 {
		t.Fatal("traced query returned nothing")
	}

	counts := make(map[string]int)
	nodeSpansBy := make(map[int]int)
	for _, s := range tr.Spans() {
		counts[s.Name]++
		if s.Duration < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Duration)
		}
		if s.Node != telemetry.NodeLocal {
			nodeSpansBy[s.Node]++
		}
	}
	for _, phase := range []string{"sample_scatter", "rank", "deep_gather"} {
		if counts[phase] != 1 {
			t.Errorf("phase %s recorded %d spans, want exactly 1 (all: %v)", phase, counts[phase], counts)
		}
	}
	// Node span shipping: every contacted node (all shards sampled, the top
	// DeepClusters deep-searched) ships one span per node-side phase.
	contacts := shards + len(res.DeepNodes)
	for _, phase := range []string{"decode", "probe_select", "list_scan", "topk_merge", "encode"} {
		if counts[phase] != contacts {
			t.Errorf("node phase %s recorded %d spans, want %d (one per contacted node; all: %v)",
				phase, counts[phase], contacts, counts)
		}
	}
	if len(counts) != 8 {
		t.Errorf("unexpected extra span names: %v", counts)
	}
	for shard := 0; shard < shards; shard++ {
		if nodeSpansBy[shard] < 5 {
			t.Errorf("shard %d shipped %d spans, want >= 5 (sampled at minimum)", shard, nodeSpansBy[shard])
		}
	}
	durs := tr.Durations()
	if durs["sample_scatter"] <= 0 || durs["deep_gather"] <= 0 {
		t.Errorf("network phases must take measurable time: %v", durs)
	}

	// The trace ID traveled to the nodes: every sample request (one per
	// shard) and every deep request carried it.
	traced := int64(0)
	snap := reg.Snapshot()
	for s := 0; s < shards; s++ {
		traced += int64(snap[fmt.Sprintf(`hermes_node_traced_requests_total{shard="%d"}`, s)])
	}
	wantTraced := int64(shards + len(res.DeepNodes))
	if traced != wantTraced {
		t.Errorf("nodes saw %d traced requests, want %d (sample to %d shards + %d deep)",
			traced, wantTraced, shards, len(res.DeepNodes))
	}

	if !strings.Contains(tr.Breakdown(), "sample_scatter=") {
		t.Errorf("breakdown missing phase: %s", tr.Breakdown())
	}
}

// TestCoordinatorMetrics checks the request counters, per-node round-trip
// histograms, byte counters, and the settled in-flight gauge after real
// traffic.
func TestCoordinatorMetrics(t *testing.T) {
	const shards = 4
	const queries = 8
	co, c, reg := telemetryCluster(t, 1200, shards)
	qs := c.Queries(queries, 13)
	p := hermes.DefaultParams()
	for i := 0; i < queries; i++ {
		if _, err := co.Search(qs.Vectors.Row(i), p); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()

	if got := snap[`hermes_distsearch_requests_total{op="sample"}`]; got != queries*shards {
		t.Errorf("sample round-trips = %v, want %d", got, queries*shards)
	}
	wantDeep := float64(queries * p.DeepClusters)
	if got := snap[`hermes_distsearch_requests_total{op="deep"}`]; got != wantDeep {
		t.Errorf("deep round-trips = %v, want %v", got, wantDeep)
	}
	if got := snap["hermes_coordinator_queries_total"]; got != queries {
		t.Errorf("queries = %v, want %d", got, queries)
	}
	if got := snap["hermes_distsearch_inflight"]; got != 0 {
		t.Errorf("in-flight gauge = %v after all queries returned, want 0", got)
	}
	if got := snap[`hermes_coordinator_phase_seconds{phase="sample"}:count`]; got != queries {
		t.Errorf("sample phase observations = %v, want %d", got, queries)
	}
	for s := 0; s < shards; s++ {
		rt := snap[fmt.Sprintf(`hermes_distsearch_roundtrip_seconds{node="%d"}:count`, s)]
		if rt < queries { // every node gets at least the sample request per query
			t.Errorf("node %d round-trip count = %v, want >= %d", s, rt, queries)
		}
		if sent := snap[fmt.Sprintf(`hermes_distsearch_bytes_sent_total{node="%d"}`, s)]; sent <= 0 {
			t.Errorf("node %d bytes sent = %v, want > 0", s, sent)
		}
		if recv := snap[fmt.Sprintf(`hermes_distsearch_bytes_recv_total{node="%d"}`, s)]; recv <= 0 {
			t.Errorf("node %d bytes recv = %v, want > 0", s, recv)
		}
	}
	if got := snap["hermes_distsearch_errors_total"]; got != 0 {
		t.Errorf("errors = %v, want 0", got)
	}
}

// TestOpStatsReturnsTelemetrySnapshot is the satellite: Stats() now ships
// each node's full metric snapshot, not just the served-request counters.
func TestOpStatsReturnsTelemetrySnapshot(t *testing.T) {
	co, c, _ := telemetryCluster(t, 1200, 3)
	qs := c.Queries(4, 17)
	for i := 0; i < 4; i++ {
		if _, err := co.Search(qs.Vectors.Row(i), hermes.DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range stats {
		if len(ns.Telemetry) == 0 {
			t.Fatalf("node %d returned no telemetry snapshot", ns.ShardID)
		}
		key := fmt.Sprintf(`hermes_node_requests_total{op="sample",shard="%d"}`, ns.ShardID)
		if got := ns.Telemetry[key]; got != 4 {
			t.Errorf("node %d %s = %v, want 4", ns.ShardID, key, got)
		}
		lat := fmt.Sprintf(`hermes_node_request_seconds{op="sample",shard="%d"}:count`, ns.ShardID)
		if got := ns.Telemetry[lat]; got != 4 {
			t.Errorf("node %d %s = %v, want 4", ns.ShardID, lat, got)
		}
		// The per-quantizer scan histogram covers at least the sample scans
		// (labels render sorted, quantizer before shard).
		scan := fmt.Sprintf(`hermes_node_scan_seconds{quantizer="SQ8",shard="%d"}:count`, ns.ShardID)
		if got := ns.Telemetry[scan]; got < 4 {
			t.Errorf("node %d %s = %v, want >= 4", ns.ShardID, scan, got)
		}
	}
}

// fakeNode is a scripted node on a local listener: handle answers each
// request on the connIdx-th accepted connection, in frames of wire version
// version(connIdx), and a nil answer hangs up. stop closes the listener and
// waits for every connection to end.
func fakeNode(t *testing.T, version func(connIdx int) byte, handle func(connIdx int, req *Request) *Response) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connIdx := 0; ; connIdx++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn, connIdx int) {
				defer wg.Done()
				defer func() { _ = conn.Close() }()
				br := bufio.NewReader(conn)
				for {
					h, body, err := readFrame(br, nil)
					var req Request
					if err != nil || decodeRequest(h.op, body, &req) != nil {
						return
					}
					resp := handle(connIdx, &req)
					if resp == nil {
						return
					}
					out := appendResponse(nil, h.id, h.op, resp, time.Time{})
					out[2] = version(connIdx)
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}(conn, connIdx)
		}
	}()
	return ln.Addr().String(), func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close fake node listener: %v", err)
		}
		wg.Wait()
	}
}

// speaks is a fakeNode version that is the same on every connection.
func speaks(v byte) func(int) byte { return func(int) byte { return v } }

// infoResponse is a fake node's OpInfo answer for a dim-dimensional shard 0.
func infoResponse(dim int) *Response {
	return &Response{ShardID: 0, Size: 1, Dim: dim, Centroid: make([]float32, dim)}
}

// upgradedNode is a fake node for shard shardID that restarts as a build of
// the next wire version right after the coordinator's handshake: its first
// connection answers OpInfo in this version and hangs up on the next
// request, and every later connection speaks version wireVersion+1.
func upgradedNode(t *testing.T, shardID, dim int) (addr string, stop func()) {
	version := func(connIdx int) byte {
		if connIdx == 0 {
			return wireVersion
		}
		return wireVersion + 1
	}
	return fakeNode(t, version, func(connIdx int, req *Request) *Response {
		if connIdx == 0 && req.Op != OpInfo {
			return nil
		}
		return &Response{ShardID: shardID, Size: 1, Dim: dim, Centroid: make([]float32, dim)}
	})
}

// TestResponseWireCompatV2V3 is the version rule after the dial, named when
// this build spoke v2 and met a v3 peer; it follows wireVersion, so today
// it is v3 meeting v4: once a node restarts as the next wire
// version, every round-trip fails with an error naming both versions, the
// connection stays poisoned, and each redial is refused again. No frame of
// the other version is ever decoded.
func TestResponseWireCompatV2V3(t *testing.T) {
	const dim = 8
	addr, stop := upgradedNode(t, 0, dim)
	defer stop()
	reg := telemetry.NewRegistry()
	co, err := DialOpts([]string{addr}, DialOptions{Timeout: time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()
	n := co.nodes[0]

	req := &Request{Op: OpSample, Query: make([]float32, dim), NProbe: 1}
	if _, err := n.roundTrip(req); err == nil {
		t.Fatal("the restart's dropped connection must fail the round-trip")
	}
	for i := 0; i < 2; i++ {
		_, err := n.roundTrip(req)
		if err == nil {
			t.Fatalf("redial %d: a node of another wire version was served", i)
		}
		for _, v := range []int{wireVersion, wireVersion + 1} {
			if !strings.Contains(err.Error(), fmt.Sprintf("v%d", v)) {
				t.Errorf("redial %d: error %q does not name v%d", i, err, v)
			}
		}
		if !n.broken {
			t.Fatalf("redial %d: the connection to a node of another version was kept", i)
		}
	}
	if got := reg.Snapshot()["hermes_distsearch_errors_total"]; got < 3 {
		t.Errorf("errors = %v, want >= 3 (the restart and two refused redials)", got)
	}
}

// hangingNode answers the OpInfo handshake correctly, then swallows every
// subsequent request without replying — the failure mode the per-round-trip
// deadline exists for.
func hangingNode(t *testing.T, dim int) (addr string, stop func()) {
	done := make(chan struct{})
	addr, stopNode := fakeNode(t, speaks(wireVersion), func(_ int, req *Request) *Response {
		if req.Op == OpInfo {
			return infoResponse(dim)
		}
		<-done // hang until shutdown
		return nil
	})
	return addr, func() { close(done); stopNode() }
}

// TestRoundTripDeadlineUnsticksHungNode: without per-round-trip deadlines
// this test would block forever on a node that accepted the connection and
// went silent. With several calls queued on the one connection, each fails
// within about one timeout of its own send, not one timeout per call queued
// ahead of it, and the next call redials.
func TestRoundTripDeadlineUnsticksHungNode(t *testing.T) {
	const dim = 16
	addr, stop := hangingNode(t, dim)
	defer stop()

	reg := telemetry.NewRegistry()
	co, err := DialOpts([]string{addr}, DialOptions{
		Timeout:          time.Second,
		RoundTripTimeout: 100 * time.Millisecond,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()

	q := make([]float32, dim)
	start := time.Now()
	_, err = co.Search(q, hermes.DefaultParams())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("search against a hung node must fail")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the stall: took %v", elapsed)
	}
	snap := reg.Snapshot()
	if got := snap["hermes_distsearch_deadline_hits_total"]; got < 1 {
		t.Errorf("deadline hits = %v, want >= 1", got)
	}
	if got := snap["hermes_distsearch_errors_total"]; got < 1 {
		t.Errorf("errors = %v, want >= 1", got)
	}

	const queued = 5
	n := co.nodes[0]
	hits, errs := co.m.deadlineHits.Value(), co.m.errors.Value()
	var calls [queued]*call
	var sentAt [queued]time.Time
	for i := range calls {
		sentAt[i] = time.Now()
		calls[i] = n.send(&Request{Op: OpSample, Query: q, NProbe: 1})
	}
	poisoned := n.conn
	for i, cl := range calls {
		resp, err := n.recv(cl)
		var ne net.Error
		if err == nil || resp != nil || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("queued call %d: resp %v, err %v; want a timeout error", i, resp, err)
		}
		// Serialized deadlines would fail the last call after 5 timeouts.
		if waited := time.Since(sentAt[i]); waited > 250*time.Millisecond {
			t.Errorf("queued call %d failed %v after its send, want about one 100ms timeout", i, waited)
		}
	}
	if got := co.m.deadlineHits.Value() - hits; got != 1 {
		t.Errorf("deadline hits for the queued calls = %d, want 1 (one poisoning)", got)
	}
	if got := co.m.errors.Value() - errs; got != queued {
		t.Errorf("errors for the queued calls = %d, want %d", got, queued)
	}
	if info, err := n.roundTrip(&Request{Op: OpInfo}); err != nil || info.Dim != dim {
		t.Fatalf("call after the timeouts: %v, %v; want a redialed handshake", info, err)
	}
	if n.conn == poisoned {
		t.Error("the call after the timeouts reused the poisoned connection")
	}
}

// TestHungNodeDoesNotFailItsWave: a wave reads its responses in node order,
// so a healthy node's answer waits while the reader times out on a hung node
// ahead of it. The healthy answer arrived in time and is still taken: in
// lenient mode the query is served from the healthy shard.
func TestHungNodeDoesNotFailItsWave(t *testing.T) {
	const dim = 8
	hung, stopHung := hangingNode(t, dim)
	defer stopHung()
	healthy, stopHealthy := fakeNode(t, speaks(wireVersion), func(_ int, req *Request) *Response {
		if req.Op == OpInfo {
			return &Response{ShardID: 1, Size: 1, Dim: dim, Centroid: make([]float32, dim)}
		}
		return &Response{Neighbors: []vec.Neighbor{{ID: 7, Score: 1}}, Costs: make([]telemetry.QueryCost, 1)}
	})
	defer stopHealthy()
	co, err := DialOpts([]string{hung, healthy}, DialOptions{
		Timeout:          time.Second,
		RoundTripTimeout: 100 * time.Millisecond,
		Telemetry:        telemetry.NewRegistry(),
		Lenient:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()
	res, err := co.Search(make([]float32, dim), hermes.DefaultParams())
	if err != nil {
		t.Fatalf("lenient search with one hung node: %v", err)
	}
	if want := []vec.Neighbor{{ID: 7, Score: 1}}; !reflect.DeepEqual(res.Neighbors, want) || !reflect.DeepEqual(res.DeepNodes, []int{1}) {
		t.Fatalf("neighbors %v from shards %v, want %v from shard 1", res.Neighbors, res.DeepNodes, want)
	}
}

// swappingNode answers the OpInfo handshake on every connection. On the
// first connection it then reads two requests and answers them with their
// IDs swapped, each response carrying the document ID of the request it
// answers (1, then 2); later connections answer in order with document 222.
func swappingNode(t *testing.T, dim int) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connIdx := 0; ; connIdx++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn, connIdx int) {
				defer wg.Done()
				defer func() { _ = conn.Close() }()
				br := bufio.NewReader(conn)
				var held []frameHeader
				for {
					h, _, err := readFrame(br, nil)
					if err != nil {
						return
					}
					var out []byte
					switch {
					case h.op == OpInfo:
						out = appendResponse(nil, h.id, h.op, infoResponse(dim), time.Time{})
					case connIdx > 0:
						out = appendResponse(nil, h.id, h.op, &Response{Neighbors: []vec.Neighbor{{ID: 222}}}, time.Time{})
					case len(held) == 0:
						held = append(held, h)
						continue
					default:
						out = appendResponse(nil, h.id, held[0].op, &Response{Neighbors: []vec.Neighbor{{ID: 1}}}, time.Time{})
						out = appendResponse(out, held[0].id, h.op, &Response{Neighbors: []vec.Neighbor{{ID: 2}}}, time.Time{})
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}(conn, connIdx)
		}
	}()
	return ln.Addr().String(), func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close swapping node listener: %v", err)
		}
		wg.Wait()
	}
}

// TestSwappedResponsesPoisonConnection: two callers pipeline a request each
// on one connection and the node answers them with their IDs swapped. Both
// calls fail, neither caller receives the other's response, and the next
// call redials and is answered in step.
func TestSwappedResponsesPoisonConnection(t *testing.T) {
	const dim = 8
	addr, stop := swappingNode(t, dim)
	defer stop()
	co, err := DialOpts([]string{addr}, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()
	n := co.nodes[0]

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := n.roundTrip(&Request{Op: OpSample, Query: make([]float32, dim), NProbe: 1})
			if err == nil || resp != nil {
				t.Errorf("caller %d: resp %+v, err %v; want the swapped answer refused", i, resp, err)
			} else if !strings.Contains(err.Error(), "does not answer request") {
				t.Errorf("caller %d: err %v does not name the mismatch", i, err)
			}
		}(i)
	}
	wg.Wait()
	resp, err := n.roundTrip(&Request{Op: OpSample, Query: make([]float32, dim), NProbe: 1})
	if err != nil {
		t.Fatalf("call after the mismatch must redial and succeed: %v", err)
	}
	if len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != 222 {
		t.Fatalf("call after the mismatch was answered by the old connection: %+v", resp.Neighbors)
	}
}

// staleReplyNode answers the OpInfo handshake, then on the first
// connection delays the reply to the next request past the caller's
// deadline before writing it — the late response of a timed-out request.
// Later connections serve samples immediately with a distinguishable
// document ID.
func staleReplyNode(t *testing.T, dim int, delay time.Duration) (addr string, stop func()) {
	return fakeNode(t, speaks(wireVersion), func(connIdx int, req *Request) *Response {
		switch {
		case req.Op == OpInfo:
			return infoResponse(dim)
		case req.Op != OpSample:
			return &Response{Err: "unexpected op"}
		case connIdx == 0:
			time.Sleep(delay)
			return &Response{Neighbors: []vec.Neighbor{{ID: 111}}}
		default:
			return &Response{Neighbors: []vec.Neighbor{{ID: 222}}}
		}
	})
}

// TestTimeoutPoisonsConnection is the stale-response regression test: after
// a deadline timeout the coordinator must abandon the connection, so the
// node's late reply (document 111 here) can never be taken as the answer to
// the NEXT request. The retry must instead redial and receive the fresh
// reply (document 222).
func TestTimeoutPoisonsConnection(t *testing.T) {
	const dim = 8
	const delay = 400 * time.Millisecond
	addr, stop := staleReplyNode(t, dim, delay)
	defer stop()

	reg := telemetry.NewRegistry()
	co, err := DialOpts([]string{addr}, DialOptions{
		Timeout:          time.Second,
		RoundTripTimeout: 100 * time.Millisecond,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()
	n := co.nodes[0]

	q := make([]float32, dim)
	if _, err := n.roundTrip(&Request{Op: OpSample, Query: q, NProbe: 1}); err == nil {
		t.Fatal("round-trip against the delayed node must time out")
	}
	// Let the node write its late reply (onto the now-closed socket) so it
	// would be sitting first in the stream if the connection were reused.
	time.Sleep(delay + 100*time.Millisecond)

	resp, err := n.roundTrip(&Request{Op: OpSample, Query: q, NProbe: 1})
	if err != nil {
		t.Fatalf("retry after timeout must redial and succeed: %v", err)
	}
	if len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != 222 {
		t.Fatalf("retry served a stale response: %+v", resp.Neighbors)
	}
	snap := reg.Snapshot()
	if got := snap["hermes_distsearch_deadline_hits_total"]; got < 1 {
		t.Errorf("deadline hits = %v, want >= 1", got)
	}
}

// TestRedialRefusesChangedIdentity: after a poisoning, the node at the
// address answers the handshake as another shard. The redial is refused
// before the caller's request is written, so a mutation never reaches the
// wrong shard, and the connection stays broken.
func TestRedialRefusesChangedIdentity(t *testing.T) {
	const dim = 8
	var reached atomic.Int64
	addr, stop := fakeNode(t, speaks(wireVersion), func(connIdx int, req *Request) *Response {
		switch {
		case connIdx == 0 && req.Op == OpInfo:
			return infoResponse(dim)
		case connIdx == 0:
			return nil // hang up: the next send must redial
		case req.Op == OpInfo:
			return &Response{ShardID: 5, Size: 1, Dim: dim, Centroid: make([]float32, dim)}
		}
		reached.Add(1)
		return &Response{ShardID: 5, OK: true}
	})
	defer stop()
	co, err := DialOpts([]string{addr}, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()

	v := make([]float32, dim)
	if _, err := co.Add(1, v); err == nil {
		t.Fatal("an Add on a connection the node hung up must fail")
	}
	for i := 0; i < 2; i++ {
		_, err := co.Add(2, v)
		if err == nil || !strings.Contains(err.Error(), "changed identity") {
			t.Fatalf("Add %d after the restart: err %v, want the redial refused for a changed identity", i, err)
		}
		if !co.nodes[0].broken {
			t.Fatalf("Add %d: the connection to a node of another shard was kept", i)
		}
	}
	if got := reached.Load(); got != 0 {
		t.Fatalf("%d requests reached the node that changed identity, want 0", got)
	}
}

// TestRedialResetFailsCleanly: after a poisoning, the node resets every new
// connection as soon as it accepts it, so the redial's handshake fails on its
// write or its read. Every call, alone or concurrent with others, fails with a
// clean reconnect error instead of a call that never completes.
func TestRedialResetFailsCleanly(t *testing.T) {
	const dim = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connIdx := 0; ; connIdx++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if connIdx > 0 {
				_ = conn.(*net.TCPConn).SetLinger(0)
				_ = conn.Close()
				continue
			}
			// The first connection answers the handshake, then hangs up
			// on the next request.
			h, _, err := readFrame(bufio.NewReader(conn), nil)
			if err == nil && h.op == OpInfo {
				_, _ = conn.Write(appendResponse(nil, h.id, h.op, infoResponse(dim), time.Time{}))
				_, _, _ = readFrame(bufio.NewReader(conn), nil)
			}
			_ = conn.Close()
		}
	}()
	defer func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close resetting node listener: %v", err)
		}
		wg.Wait()
	}()
	reg := telemetry.NewRegistry()
	co, err := DialOpts([]string{ln.Addr().String()}, DialOptions{Timeout: time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()
	n := co.nodes[0]

	req := &Request{Op: OpSample, Query: make([]float32, dim), NProbe: 1}
	if _, err := n.roundTrip(req); err == nil {
		t.Fatal("a call on a connection the node hung up must fail")
	}
	for i := 0; i < 3; i++ {
		if resp, err := n.roundTrip(req); err == nil || resp != nil || !strings.Contains(err.Error(), "reconnect") {
			t.Fatalf("call %d against a resetting node: resp %v, err %v; want a reconnect error", i, resp, err)
		}
	}
	var callers sync.WaitGroup
	for i := 0; i < 4; i++ {
		callers.Add(1)
		go func(i int) {
			defer callers.Done()
			if resp, err := n.roundTrip(req); err == nil || resp != nil {
				t.Errorf("concurrent caller %d against a resetting node: resp %v, err %v; want an error", i, resp, err)
			}
		}(i)
	}
	callers.Wait()
	if !n.broken {
		t.Error("the connection to a resetting node was kept")
	}
	if got := reg.Snapshot()["hermes_distsearch_errors_total"]; got != 8 {
		t.Errorf("errors = %v, want 8 (the hang-up, three reconnects, four concurrent callers)", got)
	}
}
