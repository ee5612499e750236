package distsearch

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// groupedCluster builds a store, serves every shard from a real node, and
// returns a coordinator plus the per-node registries.
func groupedCluster(t *testing.T, shards int, opts DialOptions) (*corpus.Corpus, *Coordinator, []*telemetry.Registry) {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{NumChunks: 900, Dim: 16, NumTopics: shards, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	regs := make([]*telemetry.Registry, shards)
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = telemetry.NewRegistry()
		node.SetTelemetry(regs[i])
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr())
	}
	if opts.Timeout == 0 {
		opts.Timeout = time.Second
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	co, err := DialOpts(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return c, co, regs
}

// TestSearchBatchGroupedWire proves grouped distributed batches return the
// same result sets as ungrouped ones, and that the nodes actually took the
// grouped path (groupscan counters move only when the flag is on).
func TestSearchBatchGroupedWire(t *testing.T) {
	const shards = 3
	c, co, regs := groupedCluster(t, shards, DialOptions{})
	qs := c.Queries(16, 23)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()

	plain, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, reg := range regs {
		key := `hermes_node_groupscan_queries_total{shard="` + strconv.Itoa(i) + `"}`
		if v := reg.Snapshot()[key]; v > 0 {
			t.Fatalf("ungrouped batch moved groupscan counters on shard %d: %v", i, v)
		}
	}

	co.SetGrouped(true)
	grouped, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grouped.Results, plain.Results) {
		t.Fatal("grouped wire batch differs from ungrouped")
	}
	if !reflect.DeepEqual(grouped.DeepLoads, plain.DeepLoads) {
		t.Fatalf("deep routing changed: %v vs %v", grouped.DeepLoads, plain.DeepLoads)
	}
	groupedQueries := 0.0
	for i, reg := range regs {
		key := `hermes_node_groupscan_queries_total{shard="` + strconv.Itoa(i) + `"}`
		groupedQueries += reg.Snapshot()[key]
	}
	// Every node samples the whole batch through the grouped path.
	if groupedQueries < float64(len(queries)*shards) {
		t.Fatalf("groupscan_queries_total = %v, want >= %d", groupedQueries, len(queries)*shards)
	}
}

// TestGroupedOldNodeDegrades runs a grouped coordinator over a cluster whose
// shard 1 restarts as another release right after the dial. A node of
// another wire version no longer degrades to per-query serving behind the
// coordinator's back: the grouped batch fails as a whole, naming both
// versions, with no partial or drifted result. Once the node runs this
// release again, the next batch redials and matches the ungrouped answer.
func TestGroupedOldNodeDegrades(t *testing.T) {
	const shards = 2
	c, err := corpus.Generate(corpus.Spec{NumChunks: 700, Dim: 16, NumTopics: shards, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
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
	defer func() { _ = node.Close() }()

	// Shard 1 serves batches per query from its real index. Its first
	// connection is the handshake before the restart, the second speaks the
	// other release's version, and later ones this release's again.
	ix := st.Shards[1].Index
	version := func(connIdx int) byte {
		if connIdx == 1 {
			return wireVersion + 1
		}
		return wireVersion
	}
	addr, stop := fakeNode(t, version, func(connIdx int, req *Request) *Response {
		resp := &Response{ShardID: 1}
		switch {
		case req.Op == OpInfo:
			resp.Size, resp.Dim, resp.Centroid = ix.Len(), ix.Dim(), make([]float32, ix.Dim())
		case connIdx == 0:
			return nil
		case req.Op == OpSampleBatch || req.Op == OpDeepBatch:
			k := req.K
			if req.Op == OpSampleBatch {
				k = 1
			}
			resp.Batch = make([][]vec.Neighbor, len(req.Queries))
			resp.Costs = make([]telemetry.QueryCost, len(req.Queries))
			for i, q := range req.Queries {
				resp.Batch[i] = ix.Search(q, k, req.NProbe)
			}
		default:
			resp.Err = "unsupported op"
		}
		return resp
	})
	defer stop()

	qs := c.Queries(10, 29)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()

	co, err := DialOpts([]string{node.Addr(), addr}, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry(), Grouped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()
	if res, err := co.SearchBatch(queries, p); err == nil {
		t.Fatalf("grouped batch across the restart succeeded: %+v", res.Results)
	}
	res, err := co.SearchBatch(queries, p)
	if err == nil {
		t.Fatalf("grouped batch over a node of another version succeeded: %+v", res.Results)
	}
	for _, v := range []int{wireVersion, wireVersion + 1} {
		if !strings.Contains(err.Error(), fmt.Sprintf("v%d", v)) {
			t.Errorf("batch error %q does not name v%d", err, v)
		}
	}
	grouped, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatalf("grouped batch once the node runs this release again: %v", err)
	}
	co.SetGrouped(false)
	plain, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grouped.Results, plain.Results) {
		t.Fatal("grouped batch after the rollout drifted from the ungrouped answer")
	}
}
