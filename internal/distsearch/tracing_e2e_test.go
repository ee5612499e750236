package distsearch

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/hwmodel"
	"repro/internal/telemetry"
)

// recordedCluster is telemetryCluster plus a flight recorder wired through
// DialOptions and the DVFS energy model enabled, i.e. the full observability
// stack a production deployment would run.
func recordedCluster(t testing.TB, chunks, shards int) (*Coordinator, *corpus.Corpus, *telemetry.Registry, *telemetry.Recorder) {
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
	rec := telemetry.NewRecorder(64, 0)
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
	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.EnableEnergyModel(hwmodel.XeonGold6448Y, 256); err != nil {
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
	return co, c, reg, rec
}

// scrape fetches one admin endpoint off the test server and returns the body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// sumSeries sums every sample of the named metric in a Prometheus text page.
func sumSeries(t *testing.T, page, name string) (float64, int) {
	t.Helper()
	var sum float64
	var n int
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		rest := line[len(name):]
		if len(rest) > 0 && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		n++
	}
	return sum, n
}

// TestClusterTracingEndToEnd runs the full observability path over a real TCP
// cluster: a traced query must yield node-side spans from every probed shard
// in the coordinator's waterfall, /debug/queries?trace=<id> must return the
// flight-recorder record over real HTTP, and the scraped /metrics page must
// carry per-shard deep-search load, the imbalance gauge, and modeled per-node
// energy series whose joules increase monotonically across scrapes.
func TestClusterTracingEndToEnd(t *testing.T) {
	const shards = 4
	co, c, reg, rec := recordedCluster(t, 1200, shards)
	srv := httptest.NewServer(telemetry.NewAdminMuxOpts(reg, rec))
	defer srv.Close()

	qs := c.Queries(1, 11)
	p := hermes.DefaultParams()
	tr := telemetry.NewTrace()
	res, err := co.SearchTraced(qs.Vectors.Row(0), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 || len(res.DeepNodes) == 0 {
		t.Fatalf("traced query returned nothing: %+v", res)
	}

	// Every probed shard (all of them: the sample phase scatters to every
	// node) contributed node-side spans to the waterfall.
	spansByNode := make(map[int]int)
	for _, s := range tr.Spans() {
		if s.Node != telemetry.NodeLocal {
			spansByNode[s.Node]++
		}
	}
	for shard := 0; shard < shards; shard++ {
		if spansByNode[shard] == 0 {
			t.Errorf("shard %d shipped no spans into the waterfall (by node: %v)", shard, spansByNode)
		}
	}
	waterfall := tr.Waterfall()
	for _, phase := range []string{"sample_scatter", "list_scan", "encode"} {
		if !strings.Contains(waterfall, phase) {
			t.Errorf("waterfall missing %s:\n%s", phase, waterfall)
		}
	}

	// The flight recorder serves the record over real HTTP, by trace ID.
	code, body := scrape(t, fmt.Sprintf("%s/debug/queries?trace=%016x", srv.URL, tr.ID()))
	if code != http.StatusOK {
		t.Fatalf("/debug/queries?trace=: status %d, body %q", code, body)
	}
	for _, want := range []string{fmt.Sprintf("%016x", tr.ID()), "list_scan", "deep="} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries?trace= body missing %q:\n%s", want, body)
		}
	}
	code, listing := scrape(t, srv.URL+"/debug/queries")
	if code != http.StatusOK || !strings.Contains(listing, fmt.Sprintf("%016x", tr.ID())) {
		t.Errorf("/debug/queries listing (status %d) missing the trace:\n%s", code, listing)
	}

	// First scrape: load, imbalance, and energy series are all present.
	_, page := scrape(t, srv.URL+"/metrics")
	if _, n := sumSeries(t, page, "hermes_coordinator_shard_deep_total"); n == 0 {
		t.Error("/metrics missing hermes_coordinator_shard_deep_total")
	}
	if _, n := sumSeries(t, page, "hermes_coordinator_load_imbalance_ratio"); n == 0 {
		t.Error("/metrics missing hermes_coordinator_load_imbalance_ratio")
	}
	joules1, n := sumSeries(t, page, "hermes_energy_model_joules")
	if n != shards {
		t.Fatalf("want %d hermes_energy_model_joules series, got %d", shards, n)
	}
	if _, n := sumSeries(t, page, "hermes_energy_model_ghz"); n != shards {
		t.Errorf("want %d hermes_energy_model_ghz series, got %d", shards, n)
	}

	// More load plus a nonzero window, then scrape again: cumulative joules
	// are monotonic (idle windows still accrue idle power).
	for i := 0; i < 4; i++ {
		if _, err := co.Search(qs.Vectors.Row(0), p); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	_, page = scrape(t, srv.URL+"/metrics")
	joules2, _ := sumSeries(t, page, "hermes_energy_model_joules")
	if !(joules2 > joules1) {
		t.Errorf("modeled joules must increase across scrapes: %v then %v", joules1, joules2)
	}
}

// TestMixedVersionClusterEmptyWaterfall: traced queries over a cluster
// caught mid-rollout are served by the real node, and the waterfall row of
// the node that restarted as another wire version stays empty, both for the
// restart's dropped connection and for a redial refused for its version.
// The query does not fail, and the coordinator phases are all there.
func TestMixedVersionClusterEmptyWaterfall(t *testing.T) {
	c, co := mixedCluster(t)
	p := hermes.DefaultParams()
	p.DeepClusters = 2
	for i := 0; i < 2; i++ {
		tr := telemetry.NewTrace()
		res, err := co.SearchTraced(c.Queries(1, 7+int64(i)).Vectors.Row(0), p, tr)
		if err != nil {
			t.Fatalf("traced query %d over the mixed cluster: %v", i, err)
		}
		if len(res.Neighbors) == 0 {
			t.Fatalf("traced query %d over the mixed cluster returned nothing", i)
		}
		phases := make(map[string]int)
		spansByNode := make(map[int]int)
		for _, s := range tr.Spans() {
			spansByNode[s.Node]++
			if s.Node == telemetry.NodeLocal {
				phases[s.Name]++
			}
		}
		if spansByNode[1] != 0 || spansByNode[0] == 0 {
			t.Errorf("query %d: spans by node %v, want some from shard 0 and none from shard 1", i, spansByNode)
		}
		for _, phase := range []string{"sample_scatter", "rank", "deep_gather"} {
			if phases[phase] != 1 {
				t.Errorf("query %d: coordinator phase %s recorded %d spans, want 1", i, phase, phases[phase])
			}
		}
	}
}
