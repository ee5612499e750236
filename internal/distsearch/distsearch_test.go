package distsearch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/flatindex"
	"repro/internal/hermes"
	"repro/internal/metrics"
)

// cluster builds a disaggregated store, launches local nodes, and dials a
// coordinator.
func cluster(t testing.TB, chunks, shards int) (*hermes.Store, *LocalCluster, *Coordinator, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{NumChunks: chunks, Dim: 16, NumTopics: shards, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := LaunchLocal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(lc.Addrs(), time.Second)
	if err != nil {
		lc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		co.Close()
		lc.Close()
	})
	return st, lc, co, c
}

// BenchmarkCoordinatorSearch is the LaunchLocal serving loop at hermes-perf's
// wire_bound shape (8000 × dim 32 on 10 shards, two clients): whole queries
// through the coordinator, loopback TCP and the nodes. DESIGN.md's
// per-exchange CPU breakdown comes from
//
//	go test -run '^$' -bench CoordinatorSearch -cpuprofile cpu.out ./internal/distsearch/
func BenchmarkCoordinatorSearch(b *testing.B) {
	c, err := corpus.Generate(corpus.Spec{NumChunks: 8000, Dim: 32, NumTopics: 16, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: 10})
	if err != nil {
		b.Fatal(err)
	}
	lc, err := LaunchLocal(st, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	co, err := Dial(lc.Addrs(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	qs := c.Queries(256, 9)
	p := hermes.Params{K: 5, SampleNProbe: 4, DeepNProbe: 16, DeepClusters: 3}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := co.Search(qs.Vectors.Row(int(next.Add(1)%256)), p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func TestCoordinatorInfo(t *testing.T) {
	st, _, co, _ := cluster(t, 800, 4)
	if co.Nodes() != 4 {
		t.Fatalf("nodes = %d", co.Nodes())
	}
	if co.Dim() != 16 {
		t.Fatalf("dim = %d", co.Dim())
	}
	if co.TotalSize() != 800 {
		t.Fatalf("total size = %d", co.TotalSize())
	}
	_ = st
}

func TestDistributedMatchesInProcess(t *testing.T) {
	st, _, co, c := cluster(t, 1200, 6)
	qs := c.Queries(20, 9)
	p := hermes.DefaultParams()
	for i := 0; i < qs.Vectors.Len(); i++ {
		q := qs.Vectors.Row(i)
		local, _ := st.Search(q, p)
		remote, err := co.Search(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(local) != len(remote.Neighbors) {
			t.Fatalf("query %d: local %d results, remote %d", i, len(local), len(remote.Neighbors))
		}
		for j := range local {
			if local[j].ID != remote.Neighbors[j].ID {
				t.Fatalf("query %d pos %d: local %d != remote %d", i, j, local[j].ID, remote.Neighbors[j].ID)
			}
		}
		if len(remote.DeepNodes) != p.DeepClusters {
			t.Fatalf("deep nodes = %d", len(remote.DeepNodes))
		}
	}
}

func TestDistributedAccuracy(t *testing.T) {
	_, _, co, c := cluster(t, 1500, 6)
	qs := c.Queries(25, 13)
	ref := flatindex.New(16)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)
	var sum float64
	for i := 0; i < qs.Vectors.Len(); i++ {
		res, err := co.Search(qs.Vectors.Row(i), hermes.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, len(res.Neighbors))
		for j, n := range res.Neighbors {
			ids[j] = n.ID
		}
		sum += metrics.NDCGAtK(ids, truth[i], 5)
	}
	if ndcg := sum / 25; ndcg < 0.93 {
		t.Fatalf("distributed NDCG = %v", ndcg)
	}
}

func TestSearchAllSupersetAccuracy(t *testing.T) {
	_, _, co, c := cluster(t, 1000, 5)
	q := c.Queries(1, 17).Vectors.Row(0)
	all, err := co.SearchAll(q, hermes.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(all.DeepNodes) != 5 {
		t.Fatalf("SearchAll should touch all 5 nodes, got %d", len(all.DeepNodes))
	}
	hier, err := co.Search(q, hermes.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// SearchAll's best distance can only be <= hierarchical's best.
	if len(all.Neighbors) > 0 && len(hier.Neighbors) > 0 &&
		all.Neighbors[0].Score > hier.Neighbors[0].Score {
		t.Fatalf("SearchAll best %v worse than hierarchical %v", all.Neighbors[0].Score, hier.Neighbors[0].Score)
	}
}

func TestQueryDimValidation(t *testing.T) {
	_, _, co, _ := cluster(t, 400, 2)
	if _, err := co.Search([]float32{1, 2}, hermes.DefaultParams()); err == nil {
		t.Fatal("wrong-dim query should error")
	}
	if _, err := co.SearchAll([]float32{1}, hermes.DefaultParams()); err == nil {
		t.Fatal("wrong-dim SearchAll should error")
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, _, co, c := cluster(t, 1000, 4)
	qs := c.Queries(32, 21)
	var wg sync.WaitGroup
	errs := make([]error, qs.Vectors.Len())
	for i := 0; i < qs.Vectors.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = co.Search(qs.Vectors.Row(i), hermes.DefaultParams())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(nil, time.Second); err == nil {
		t.Fatal("empty addrs should error")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("unreachable node should error")
	}
}

func TestShutdown(t *testing.T) {
	c, err := corpus.Generate(corpus.Spec{NumChunks: 300, Dim: 8, NumTopics: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := LaunchLocal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	co, err := Dial(lc.Addrs(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Nodes are gone: a fresh dial must fail.
	if _, err := Dial(lc.Addrs(), 300*time.Millisecond); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
}

func TestNodeRejectsUntrainedIndex(t *testing.T) {
	if _, err := NewNode(0, nil, nil); err == nil {
		t.Fatal("nil index should error")
	}
}

func TestNodeDoubleCloseSafe(t *testing.T) {
	c, _ := corpus.Generate(corpus.Spec{NumChunks: 100, Dim: 4, NumTopics: 2, Seed: 8})
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(0, st.Shards[0].Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResultLatenciesPopulated(t *testing.T) {
	_, _, co, c := cluster(t, 600, 3)
	res, err := co.Search(c.Queries(1, 31).Vectors.Row(0), hermes.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleLatency <= 0 || res.DeepLatency <= 0 {
		t.Fatalf("latencies not populated: %+v", res)
	}
}

func TestLenientSurvivesNodeFailure(t *testing.T) {
	st, lc, co, c := cluster(t, 1200, 6)
	_ = st
	qs := c.Queries(10, 61)
	p := hermes.DefaultParams()

	// Baseline: all nodes alive.
	if _, err := co.Search(qs.Vectors.Row(0), p); err != nil {
		t.Fatal(err)
	}

	// Kill one node. Strict mode must fail; lenient mode must serve from
	// the survivors.
	lc.nodes[0].Close()
	var failed bool
	for i := 0; i < qs.Vectors.Len(); i++ {
		if _, err := co.Search(qs.Vectors.Row(i), p); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("strict mode should fail once a node is dead")
	}

	co.SetLenient(true)
	served := 0
	for i := 0; i < qs.Vectors.Len(); i++ {
		res, err := co.Search(qs.Vectors.Row(i), p)
		if err != nil {
			t.Fatalf("lenient query %d failed: %v", i, err)
		}
		if len(res.Neighbors) > 0 {
			served++
		}
	}
	if served != qs.Vectors.Len() {
		t.Fatalf("lenient mode served %d/%d queries", served, qs.Vectors.Len())
	}
	// Federation leaves an unreachable node out of the cluster view rather
	// than failing it.
	if view := co.ClusterMetrics(); len(view.Missing) != 1 || view.Missing[0] != 0 || len(view.Nodes) != 5 {
		t.Fatalf("cluster view Missing=%v with %d nodes, want shard 0 missing and 5 contributing", view.Missing, len(view.Nodes))
	}
}

func TestLenientAllNodesDead(t *testing.T) {
	_, lc, co, c := cluster(t, 400, 2)
	co.SetLenient(true)
	for _, n := range lc.nodes {
		n.Close()
	}
	if _, err := co.Search(c.Queries(1, 63).Vectors.Row(0), hermes.DefaultParams()); err == nil {
		t.Fatal("all-dead cluster should still error")
	}
}

func TestDistributedMutation(t *testing.T) {
	_, _, co, c := cluster(t, 1000, 5)
	// Ingest a document near topic 0's center; it must become retrievable
	// through the distributed search.
	v := make([]float32, 16)
	copy(v, c.Centers.Row(0))
	shard, err := co.Add(999999, v)
	if err != nil {
		t.Fatal(err)
	}
	if shard < 0 || shard >= 5 {
		t.Fatalf("routed to shard %d", shard)
	}
	res, err := co.Search(v, hermes.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 || res.Neighbors[0].ID != 999999 {
		t.Fatalf("ingested doc not the best hit: %+v", res.Neighbors)
	}
	// Remove it again.
	gotShard, ok, err := co.Remove(999999)
	if err != nil || !ok || gotShard != shard {
		t.Fatalf("remove = %d,%v,%v (want shard %d)", gotShard, ok, err, shard)
	}
	res, err = co.Search(v, hermes.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Neighbors {
		if n.ID == 999999 {
			t.Fatal("removed doc still retrievable")
		}
	}
	// Removing an unknown id reports false without error.
	if _, ok, err := co.Remove(123456789); err != nil || ok {
		t.Fatalf("unknown remove = %v,%v", ok, err)
	}
}

func TestDistributedMutationValidation(t *testing.T) {
	_, _, co, _ := cluster(t, 400, 2)
	if _, err := co.Add(1, []float32{1, 2}); err == nil {
		t.Fatal("wrong-dim add should error")
	}
}

// Concurrent ingest and search over the wire must be race-free (the node
// serializes mutations against searches with an RWMutex).
func TestConcurrentMutationAndSearch(t *testing.T) {
	_, _, co, c := cluster(t, 800, 4)
	qs := c.Queries(40, 81)
	var wg sync.WaitGroup
	errs := make(chan error, 80)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := co.Search(qs.Vectors.Row(i), hermes.DefaultParams()); err != nil {
				errs <- err
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := make([]float32, 16)
			copy(v, c.Centers.Row(i%4))
			if _, err := co.Add(int64(50000+i), v); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNodeStatsAndCompact(t *testing.T) {
	_, _, co, c := cluster(t, 800, 4)
	qs := c.Queries(10, 91)
	p := hermes.DefaultParams()
	for i := 0; i < qs.Vectors.Len(); i++ {
		if _, err := co.Search(qs.Vectors.Row(i), p); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats for %d nodes", len(stats))
	}
	var sample, deep int64
	for _, s := range stats {
		sample += s.SampleServed
		deep += s.DeepServed
	}
	// Each query samples every node and deep-searches DeepClusters of them.
	if sample != int64(qs.Vectors.Len()*4) {
		t.Fatalf("sample served %d, want %d", sample, qs.Vectors.Len()*4)
	}
	if deep != int64(qs.Vectors.Len()*p.DeepClusters) {
		t.Fatalf("deep served %d, want %d", deep, qs.Vectors.Len()*p.DeepClusters)
	}

	// Mutate, check tombstones appear, compact, check they clear.
	if _, ok, err := co.Remove(0); err != nil || !ok {
		t.Fatalf("remove: %v %v", ok, err)
	}
	stats, err = co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	tomb := 0
	for _, s := range stats {
		tomb += s.Tombstones
	}
	if tomb != 1 {
		t.Fatalf("tombstones = %d, want 1", tomb)
	}
	if err := co.Compact(); err != nil {
		t.Fatal(err)
	}
	stats, err = co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Tombstones != 0 {
			t.Fatal("tombstones survived Compact")
		}
	}
}
