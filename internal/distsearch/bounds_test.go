package distsearch

import (
	"encoding/gob"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/evlog"
)

// rawConn is one TCP connection to a node speaking the wire protocol by
// hand, so a test controls exactly which connection carries which request
// (nodeClient would redial behind its back).
type rawConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

func (c *rawConn) exchange(t *testing.T, req *Request) *Response {
	t.Helper()
	if err := c.conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Encode(req); err != nil {
		t.Fatalf("send: %v", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		t.Fatalf("recv (the node dropped the connection): %v", err)
	}
	return &resp
}

// TestMalformedRequestsDoNotKillNode is the ROADMAP item 1 bounds regression:
// Request{Op: OpDeep, K: 1<<62} used to reach vec.NewTopK and panic the whole
// node process. Every out-of-range request must come back as an error
// response, and the node must keep serving — on the connection that carried
// the bad request and on a fresh one.
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
