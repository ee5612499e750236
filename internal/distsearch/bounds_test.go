package distsearch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/evlog"
)

// rawConn is one TCP connection to a node speaking the wire protocol by
// hand, so a test controls exactly which connection carries which bytes
// (nodeClient would redial behind its back).
type rawConn struct {
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{conn: conn, br: bufio.NewReader(conn)}
}

// send writes frame as it is, however damaged.
func (c *rawConn) send(t *testing.T, frame []byte) {
	t.Helper()
	if err := c.conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatalf("send: %v", err)
	}
}

// recv reads one response frame; an error means the node closed the
// connection (or sent something that is not a frame).
func (c *rawConn) recv() (frameHeader, *Response, error) {
	h, body, err := readFrame(c.br, nil)
	var resp Response
	if err == nil {
		err = decodeResponse(h.op, body, &resp)
	}
	return h, &resp, err
}

func (c *rawConn) exchange(t *testing.T, req *Request) *Response {
	t.Helper()
	c.id++
	c.send(t, appendRequest(nil, c.id, req))
	h, resp, err := c.recv()
	if err != nil {
		t.Fatalf("recv (the node dropped the connection): %v", err)
	}
	if h.op != req.Op || h.id != c.id {
		t.Fatalf("response (op %d, id %d) does not echo request (op %d, id %d)", h.op, h.id, req.Op, c.id)
	}
	return resp
}

// TestMalformedRequestsDoNotKillNode is the ROADMAP item 1 bounds regression:
// Request{Op: OpDeep, K: 1<<62} used to reach vec.NewTopK and panic the whole
// node process. Every out-of-range request must come back as an error
// response, and the node must keep serving — on the connection that carried
// the bad request and on a fresh one.
//
// Damaged frames follow. A fault the framing survives (checksum, unknown op,
// a body that does not parse) gets an error response and the connection
// keeps serving; a fault that loses the framing (magic, length, truncation)
// closes the connection. Either way a fresh connection is served. A frame of
// another version is TestRequestWireCompat's.
func TestMalformedRequestsDoNotKillNode(t *testing.T) {
	_, lc, _, c := cluster(t, 600, 2)
	addr := lc.Addrs()[0]
	q := append([]float32(nil), c.Vectors.Row(3)...)
	with := func(i int, x float32) []float32 {
		v := append([]float32(nil), q...)
		v[i] = x
		return v
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(-1))
	good := &Request{Op: OpDeep, Query: q, K: 5, NProbe: 8}
	checkServes := func(conn *rawConn, when string) {
		t.Helper()
		resp := conn.exchange(t, good)
		if resp.Err != "" || len(resp.Neighbors) != 5 {
			t.Fatalf("%s: normal OpDeep got err=%q, %d neighbors", when, resp.Err, len(resp.Neighbors))
		}
	}

	conn := dialRaw(t, addr)
	checkServes(conn, "before")
	bad := map[string]*Request{
		"huge k":           {Op: OpDeep, Query: q, K: 1 << 62, NProbe: 8},
		"zero k":           {Op: OpDeep, Query: q, K: 0, NProbe: 8},
		"negative k":       {Op: OpDeepBatch, Queries: [][]float32{q}, K: -3, NProbe: 8},
		"huge batch k":     {Op: OpDeepBatch, Queries: [][]float32{q}, K: 1 << 62, NProbe: 8, Grouped: true},
		"negative nprobe":  {Op: OpSample, Query: q, NProbe: -1},
		"huge nprobe":      {Op: OpDeep, Query: q, K: 5, NProbe: 1 << 40},
		"NaN query":        {Op: OpDeep, Query: with(2, nan), K: 5, NProbe: 8},
		"Inf query":        {Op: OpSample, Query: with(0, inf), NProbe: 8},
		"NaN batch query":  {Op: OpSampleBatch, Queries: [][]float32{q, with(1, nan)}, NProbe: 8},
		"empty batch":      {Op: OpDeepBatch, K: 5, NProbe: 8},
		"oversized batch":  {Op: OpSampleBatch, Queries: make([][]float32, maxRequestBatch+1), NProbe: 8},
		"short query":      {Op: OpDeep, Query: q[:3], K: 5, NProbe: 8},
		"NaN add":          {Op: OpAdd, ID: 99_999, Query: with(4, nan)},
		"short batch item": {Op: OpDeepBatch, Queries: [][]float32{q, q[:1]}, K: 5, NProbe: 8, Grouped: true},
	}
	for name, req := range bad {
		resp := conn.exchange(t, req)
		if resp.Err == "" {
			t.Fatalf("%s: accepted, want an error response", name)
		}
		checkServes(conn, "same connection after "+name)
	}
	checkServes(dialRaw(t, addr), "fresh connection")

	// A k beyond the shard's live count but inside the bound is legal: the
	// index clamps it and returns every live vector.
	info := conn.exchange(t, &Request{Op: OpInfo})
	resp := conn.exchange(t, &Request{Op: OpDeep, Query: q, K: maxRequestK, NProbe: maxRequestNProbe})
	if resp.Err != "" || len(resp.Neighbors) != info.Size {
		t.Fatalf("k=%d: err=%q, %d neighbors, want all %d live vectors", maxRequestK, resp.Err, len(resp.Neighbors), info.Size)
	}

	damaged := func(edit func(f []byte) []byte) []byte {
		return edit(appendRequest(nil, 7, good))
	}
	faults := []struct {
		name   string
		frame  []byte
		intact bool
	}{
		{"bad magic", damaged(func(f []byte) []byte { f[0] = 'X'; return f }), false},
		{"length over the cap", damaged(func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[12:], maxFrameBody+1)
			return f
		}), false},
		{"truncated body", damaged(func(f []byte) []byte { return f[:len(f)-3] }), false},
		{"checksum mismatch", damaged(func(f []byte) []byte { f[headerSize+5] ^= 0x40; return f }), true},
		{"unknown op", damaged(func(f []byte) []byte { f[3] = 0xee; return f }), true},
		{"trailing byte", damaged(func(f []byte) []byte { return sealFrame(append(f, 0), 0) }), true},
	}
	for _, fault := range faults {
		conn := dialRaw(t, addr)
		conn.send(t, fault.frame)
		if fault.name == "truncated body" {
			// The node waits for the rest of the body until the peer's
			// half of the connection ends.
			if err := conn.conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
		}
		h, resp, err := conn.recv()
		if fault.intact {
			if err != nil || resp.Err == "" || h.id != 7 {
				t.Fatalf("%s: got id %d, err=%v, response error %q; want an error response to id 7", fault.name, h.id, err, resp.Err)
			}
			checkServes(conn, "same connection after "+fault.name)
		} else if err == nil {
			t.Fatalf("%s: the node kept a connection whose framing is lost", fault.name)
		}
		checkServes(dialRaw(t, addr), "fresh connection after "+fault.name)
	}
}

// TestRequestWireCompat is the version rule from the node's side: a request
// frame of another protocol version is answered with an error frame in the
// node's own version, naming both, and then the connection is closed. The
// node goes on serving requests of its own version.
func TestRequestWireCompat(t *testing.T) {
	_, lc, _, _ := cluster(t, 300, 2)
	addr := lc.Addrs()[0]
	conn := dialRaw(t, addr)
	frame := appendRequest(nil, 5, &Request{Op: OpInfo})
	frame[2] = wireVersion + 1
	conn.send(t, frame)
	h, resp, err := conn.recv()
	if err != nil || h.op != OpInfo || h.id != 5 {
		t.Fatalf("got op %d, id %d, err=%v; want an error frame answering op %d, id 5", h.op, h.id, err, OpInfo)
	}
	for _, v := range []int{wireVersion, wireVersion + 1} {
		if !strings.Contains(resp.Err, fmt.Sprintf("v%d", v)) {
			t.Errorf("response error %q does not name v%d", resp.Err, v)
		}
	}
	if _, _, err := conn.recv(); err == nil {
		t.Fatal("the node kept a connection that spoke another wire version")
	}
	if resp := dialRaw(t, addr).exchange(t, &Request{Op: OpInfo}); resp.Err != "" || resp.Dim != 16 {
		t.Fatalf("fresh connection: err=%q dim=%d, want a normal OpInfo answer", resp.Err, resp.Dim)
	}
}

// TestDialRefusesOtherWireVersion is the version rule from the dialing
// side: a node answering the OpInfo handshake in another protocol version
// fails the dial with an error naming both versions.
func TestDialRefusesOtherWireVersion(t *testing.T) {
	addr, stop := fakeNode(t, speaks(wireVersion+1), func(int, *Request) *Response { return infoResponse(4) })
	defer stop()
	co, err := Dial([]string{addr}, time.Second)
	if err == nil {
		_ = co.Close() // lets stop return
		t.Fatal("dial accepted a node of another wire version")
	}
	for _, v := range []int{wireVersion, wireVersion + 1} {
		if !strings.Contains(err.Error(), fmt.Sprintf("v%d", v)) {
			t.Errorf("dial error %q does not name v%d", err, v)
		}
	}
}

// TestHandlerPanicBecomesErrorResponse covers the recover in the serving
// loop: a panic while handling one request (here forced with a node whose
// index is gone) is that request's error, not the end of the process or of
// the connection.
func TestHandlerPanicBecomesErrorResponse(t *testing.T) {
	st, _, _, _ := cluster(t, 300, 2)
	n, err := NewNode(7, st.Shards[0].Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.index = nil // every handler now dereferences nil
	ev := evlog.New(evlog.Config{})
	n.SetEvents(ev)
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	conn := dialRaw(t, n.Addr())
	for i := 0; i < 2; i++ { // the second exchange proves the connection survived
		resp := conn.exchange(t, &Request{Op: OpInfo})
		if !strings.Contains(resp.Err, "internal error") {
			t.Fatalf("exchange %d: err = %q, want an internal-error response", i, resp.Err)
		}
	}
	panics := 0
	for _, e := range ev.Events() {
		if e.Name == "node.panic" {
			panics++
		}
	}
	if panics != 2 {
		t.Fatalf("event log holds %d node.panic events, want 2", panics)
	}
}
