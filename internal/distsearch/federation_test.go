package distsearch

import (
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/evlog"
	"repro/internal/hermes"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// TestResponseWireCompatV3V4 follows metric families, the response field
// named for the protocol revision that added it, end to end: what a real
// node's registry exports reaches the coordinator's cluster view unchanged,
// counters and histograms alike.
func TestResponseWireCompatV3V4(t *testing.T) {
	_, co, regs := groupedCluster(t, 2, DialOptions{})
	regs[1].Counter("hermes_test_requests_total", "r").Add(7)
	h := regs[1].Histogram("hermes_test_seconds", "s", []float64{0.001, 0.1, 10})
	for _, v := range []float64{0.0005, 0.05, 3, 42} {
		h.Observe(v)
	}
	testFamilies := func(fs []telemetry.FamilySnapshot) []telemetry.FamilySnapshot {
		var out []telemetry.FamilySnapshot
		for _, f := range fs {
			if strings.HasPrefix(f.Name, "hermes_test_") {
				out = append(out, f)
			}
		}
		return out
	}
	want := testFamilies(regs[1].Export())
	if len(want) != 2 {
		t.Fatalf("registry exports %d test families, want 2", len(want))
	}
	view := co.ClusterMetrics()
	for _, nf := range view.Nodes {
		if nf.ShardID == 1 {
			if got := testFamilies(nf.Families); !reflect.DeepEqual(got, want) {
				t.Fatalf("families changed crossing the wire:\n sent %+v\n  got %+v", want, got)
			}
			return
		}
	}
	t.Fatalf("shard 1 missing from the cluster view: %+v", view.Missing)
}

// mixedCluster is a lenient coordinator over a cluster caught mid-rollout:
// a real node for shard 0 and an upgradedNode for shard 1.
func mixedCluster(t *testing.T) (*corpus.Corpus, *Coordinator) {
	t.Helper()
	const dim = 16
	c, err := corpus.Generate(corpus.Spec{NumChunks: 400, Dim: dim, NumTopics: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(0, st.Shards[0].Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	node.SetTelemetry(telemetry.NewRegistry())
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	addr, stop := upgradedNode(t, 1, dim)
	t.Cleanup(stop)
	co, err := DialOpts([]string{node.Addr(), addr},
		DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry(), Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	return c, co
}

// TestMixedVersionFederationDegrades: once shard 1 restarts as another wire
// version, federation leaves it out of the cluster view, both for the
// restart's dropped connection and for each redial the version check
// refuses, while the real node keeps contributing and lenient queries keep
// being served by it. Never an error.
func TestMixedVersionFederationDegrades(t *testing.T) {
	c, co := mixedCluster(t)
	for i := 0; i < 2; i++ {
		view := co.ClusterMetrics()
		if len(view.Missing) != 1 || view.Missing[0] != 1 {
			t.Errorf("pull %d: Missing = %v, want [1] (the upgraded node)", i, view.Missing)
		}
		if len(view.Nodes) != 1 || view.Nodes[0].ShardID != 0 {
			t.Fatalf("pull %d: contributing nodes = %+v, want shard 0 only", i, view.Nodes)
		}
		flat := telemetry.FlattenFamilies(view.Merged)
		if flat[`hermes_node_requests_total{op="info",shard="0"}`] == 0 {
			t.Errorf("pull %d: merged view missing the real node's request counters: %v", i, flat)
		}
	}
	p := hermes.DefaultParams()
	p.DeepClusters = 2
	res, err := co.Search(c.Queries(1, 3).Vectors.Row(0), p)
	if err != nil {
		t.Fatalf("lenient query over the mixed cluster: %v", err)
	}
	if len(res.Neighbors) == 0 || !reflect.DeepEqual(res.DeepNodes, []int{0}) {
		t.Fatalf("got %d neighbors from shards %v, want results from shard 0 alone", len(res.Neighbors), res.DeepNodes)
	}
}

// delayProxy forwards TCP bytes to a backend, injecting a per-chunk delay
// on the response direction when enabled — the "artificially slowed node"
// for deadline/SLO tests, with the real node logic untouched behind it.
type delayProxy struct {
	ln      net.Listener
	backend string
	delay   atomic.Int64 // nanoseconds; 0 = transparent
}

func newDelayProxy(t *testing.T, backend string) *delayProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProxy{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close() })
	//lint:ignore goroutinectx accept loop exits when the cleanup ln.Close unblocks Accept
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			//lint:ignore goroutinectx per-conn forwarder exits when either side closes at test end
			//lint:ignore goroutineleak forwarder unblocks on conn close: cleanup closes the listener-held conns and the coordinator closes its side at test end
			go p.forward(conn)
		}
	}()
	return p
}

func (p *delayProxy) forward(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	//lint:ignore goroutinectx request pump exits when the client conn closes at test end
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := server.Read(buf)
		if n > 0 {
			if d := p.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestClusterObservabilityEndToEnd is the acceptance e2e for the cluster
// observability plane, over real TCP nodes and real HTTP admin endpoints:
//
//  1. /metrics/cluster serves merged metrics from multiple real nodes;
//  2. /debug/slo flips an objective from healthy to BURNING when one node
//     is artificially slowed past the round-trip deadline;
//  3. /debug/events shows the resulting deadline-hit (and poisoning)
//     events.
func TestClusterObservabilityEndToEnd(t *testing.T) {
	const shards = 3
	c, err := corpus.Generate(corpus.Spec{NumChunks: 900, Dim: 16, NumTopics: shards, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var addrs []string
	var proxy *delayProxy
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		node.SetTelemetry(telemetry.NewRegistry())
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		if i == shards-1 {
			// The last shard sits behind the delay proxy — the node we
			// will slow down mid-test.
			proxy = newDelayProxy(t, node.Addr())
			addrs = append(addrs, proxy.ln.Addr().String())
		} else {
			addrs = append(addrs, node.Addr())
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	coordReg := telemetry.NewRegistry()
	ev := evlog.New(evlog.Config{Capacity: 256})
	co, err := DialOpts(addrs, DialOptions{
		Timeout:          2 * time.Second,
		RoundTripTimeout: 150 * time.Millisecond,
		Telemetry:        coordReg,
		Lenient:          true,
		Events:           ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// SLO: 90% of sample scatters under 50ms. Windows are sized so the
	// whole test fits inside the fast window — the healthy and slowed
	// phases land in the same window and the burn rate is driven purely by
	// the good/bad mix, not wall-clock stepping.
	engine := slo.NewEngineWindows(slo.WindowConfig{
		Fast: time.Hour, FastSlot: time.Minute,
		Slow: 2 * time.Hour, SlowSlot: time.Minute,
	})
	obj := slo.Objective{Name: "scatter", Kind: slo.KindLatency, Target: 0.9, Threshold: 50 * time.Millisecond}
	if err := engine.AddObjective(obj, slo.LatencySource(co.m.phaseSample, obj.Threshold)); err != nil {
		t.Fatal(err)
	}
	engine.Tick() // prime

	mux := telemetry.NewAdminMux(coordReg)
	mux.HandleFunc("/metrics/cluster", co.ServeClusterMetrics)
	mux.HandleFunc("/debug/slo", engine.ServeSLO)
	mux.HandleFunc("/debug/events", ev.ServeEvents)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Phase 1 — healthy traffic.
	p := hermes.DefaultParams()
	qs := c.Queries(4, 11)
	for i := 0; i < 8; i++ {
		if _, err := co.Search(qs.Vectors.Row(i%4), p); err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
	}

	// /metrics/cluster merges all three real nodes plus the coordinator.
	code, page := scrape(t, srv.URL+"/metrics/cluster")
	if code != 200 {
		t.Fatalf("/metrics/cluster status %d", code)
	}
	if !strings.Contains(page, "# cluster view: coordinator + 3 node(s)") {
		t.Errorf("/metrics/cluster header wrong:\n%.300s", page)
	}
	if sum, n := sumSeries(t, page, "hermes_node_requests_total"); n == 0 || sum == 0 {
		t.Errorf("/metrics/cluster missing merged node request counters (n=%d sum=%v)", n, sum)
	}
	if _, n := sumSeries(t, page, "hermes_coordinator_queries_total"); n == 0 {
		t.Error("/metrics/cluster missing coordinator-side families")
	}
	// Per-node breakdown: one shard's unmerged view.
	code, nodePage := scrape(t, srv.URL+"/metrics/cluster?node=0")
	if code != 200 || !strings.Contains(nodePage, "# node view: shard 0") {
		t.Errorf("per-node breakdown (status %d):\n%.200s", code, nodePage)
	}

	// /debug/slo: healthy.
	_, sloPage := scrape(t, srv.URL+"/debug/slo")
	if !strings.Contains(sloPage, "scatter") || !strings.Contains(sloPage, "healthy") ||
		strings.Contains(sloPage, "BURNING") {
		t.Errorf("pre-slowdown /debug/slo:\n%s", sloPage)
	}

	// Phase 2 — slow the proxied node past the 150ms round-trip deadline.
	proxy.delay.Store(int64(400 * time.Millisecond))
	for i := 0; i < 10; i++ {
		// Lenient mode: queries survive on the healthy shards while the
		// slowed node eats deadline hits.
		if _, err := co.Search(qs.Vectors.Row(i%4), p); err != nil {
			t.Fatalf("slowed-phase query %d: %v", i, err)
		}
	}
	if co.m.deadlineHits.Value() == 0 {
		t.Fatal("slowed node produced no deadline hits; the SLO flip would be vacuous")
	}

	// /debug/slo: burning. 10 of 18 scatters blew the 50ms threshold
	// against a 10% budget.
	_, sloPage = scrape(t, srv.URL+"/debug/slo")
	if !strings.Contains(sloPage, "BURNING") {
		t.Errorf("post-slowdown /debug/slo did not flip to BURNING:\n%s", sloPage)
	}

	// /debug/events: the deadline hits and poisonings are on the record.
	_, evPage := scrape(t, srv.URL+"/debug/events")
	for _, want := range []string{"deadline.hit", "conn.poisoned", "node.dial"} {
		if !strings.Contains(evPage, want) {
			t.Errorf("/debug/events missing %q:\n%s", want, evPage)
		}
	}
}
