package distsearch

// Remove routing by per-node id filters, and the release of a closed
// coordinator by its registry.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/hwmodel"
	"repro/internal/telemetry"
)

// TestIDFilterProperties: a filter never misses an id it recorded, whether
// before it is shared or concurrently with readers, costs two bytes per id, and
// its false-positive rate on ids it never saw is near the 0.24% that 16 bits
// and 4 probes per id give.
func TestIDFilterProperties(t *testing.T) {
	const n = 50000
	f := newIDFilter(n)
	if got := 8 * len(f.words); got != 2*n {
		t.Fatalf("filter for %d ids is %d bytes, want %d", n, got, 2*n)
	}
	for id := int64(0); id < n/2; id++ {
		f.add(id)
	}
	var wg sync.WaitGroup
	// A reader beside the writers: Remove reads a filter while Add sets its
	// bits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(0); id < n; id++ {
			if id < n/2 && !f.mayHold(id) {
				t.Errorf("id %d was set before the adds began but the filter misses it", id)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := int64(n/2 + w); id < n; id += 4 {
				f.add(id)
			}
		}(w)
	}
	wg.Wait()
	for id := int64(0); id < n; id++ {
		if !f.mayHold(id) {
			t.Fatalf("id %d was recorded but the filter misses it", id)
		}
	}
	fp := 0
	const probes = 400000
	for id := int64(1 << 40); id < 1<<40+probes; id++ {
		if f.mayHold(id) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate < 0.0015 || rate > 0.0035 {
		t.Errorf("false-positive rate %.4f%%, want about 0.24%%", 100*rate)
	} else {
		t.Logf("false-positive rate %.4f%% over %d absent ids", 100*rate, probes)
	}
	if newIDFilter(0).mayHold(0) || (*idFilter)(nil).mayHold(0) || (&idFilter{}).mayHold(0) {
		t.Error("an empty filter claims an id")
	}
	(*idFilter)(nil).add(1)
	(&idFilter{}).add(1)
	if len(newIDFilter(0).words) != 1 {
		t.Error("a filter for an empty node has no word to record adds in")
	}
}

// routeCluster serves the wire_bound ladder cluster (10 shards) and returns
// it with a second build of the same store: the nodes mutate the first, and
// the second answers, through Store.Remove, which shard a walk in node order
// finds an id on.
func routeCluster(t *testing.T) (c *corpus.Corpus, ref *hermes.Store, cl *LocalCluster) {
	t.Helper()
	lc := ladderCases[0]
	c, err := corpus.Generate(lc.spec)
	if err != nil {
		t.Fatal(err)
	}
	var st [2]*hermes.Store
	for i := range st {
		if st[i], err = hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: lc.shards, QuantBits: 8, Seeds: []int64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if cl, err = LaunchLocal(st[0], nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return c, st[1], cl
}

// dialCounted dials cl with a private registry and returns the coordinator
// with its counter of OpRemove requests.
func dialCounted(t *testing.T, cl *LocalCluster) (*Coordinator, *telemetry.Counter) {
	t.Helper()
	reg := telemetry.NewRegistry()
	co, err := DialOpts(cl.Addrs(), DialOptions{Timeout: 5 * time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	return co, reg.Counter("hermes_distsearch_requests_total", "round-trips issued by op", "op", opName(OpRemove))
}

// falseBefore counts the nodes before node holder whose filter claims id: the
// exchanges a routed Remove makes on top of the holder's.
func falseBefore(co *Coordinator, holder int, id int64) int64 {
	var n int64
	for _, c := range co.nodes[:holder] {
		if c.ids.Load().mayHold(id) {
			n++
		}
	}
	return n
}

// TestRemoveRoutedToHolder: on the 10-node wire_bound ladder cluster, a
// Remove of an id one node holds, original or added through the
// coordinator, returns the shard Store.Remove names and costs one OpRemove
// exchange, plus one per node before the holder whose filter falsely claims
// the id. An absent id costs one exchange per node and returns (0, false,
// nil).
func TestRemoveRoutedToHolder(t *testing.T) {
	c, ref, cl := routeCluster(t)
	co, removes := dialCounted(t, cl)
	n := int64(len(co.nodes))
	rng := rand.New(rand.NewSource(3))

	const each = 200
	var ids []int64
	for _, i := range rng.Perm(c.Vectors.Len())[:each] {
		ids = append(ids, int64(i))
	}
	added := c.Queries(each, 11).Vectors
	for i := 0; i < each; i++ {
		id := int64(1<<32 + i)
		s, err := co.Add(id, added.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Shards[s].Index.Add(id, added.Row(i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	var extra, hit int64
	for _, id := range ids {
		want, ok := ref.Remove(id)
		if !ok {
			t.Fatalf("reference store does not hold id %d", id)
		}
		if !co.nodes[want].ids.Load().mayHold(id) {
			t.Fatalf("id %d: the filter of node %d, which holds it, misses it", id, want)
		}
		fp := falseBefore(co, want, id)
		before := removes.Value()
		got, ok, err := co.Remove(id)
		if err != nil || !ok || got != want {
			t.Fatalf("Remove(%d) = (%d, %v, %v), want (%d, true, nil)", id, got, ok, err, want)
		}
		if cost := removes.Value() - before; cost != 1+fp {
			t.Fatalf("Remove(%d) on node %d made %d exchanges, want 1 + %d false positives before it", id, want, cost, fp)
		}
		extra += fp
		if fp > 0 {
			hit++
		}
	}
	// 0.24% false positives over nine other nodes put about one Remove in
	// a hundred behind a false claim; one in twenty-five would mean the
	// filters are not doing their job.
	if hit > int64(len(ids))/25 {
		t.Errorf("%d of %d removes asked a node a filter falsely claimed first", hit, len(ids))
	}
	t.Logf("%d removes: %d exchanges, %d of them on false positives", len(ids), int64(len(ids))+extra, extra)

	// The handshake's frame, which carries the filter, was not kept as the
	// connection's read buffer.
	for i, nc := range co.nodes {
		if filter := 8 * len(nc.ids.Load().words); cap(nc.conn.rbuf) >= filter {
			t.Errorf("node %d: the connection keeps a %d-byte read buffer, as large as the %d-byte filter", i, cap(nc.conn.rbuf), filter)
		}
	}

	absent := append(ids[:10:10], -1, -2, 1<<40)
	for _, id := range absent {
		before := removes.Value()
		got, ok, err := co.Remove(id)
		if got != 0 || ok || err != nil {
			t.Fatalf("Remove(%d) of an absent id = (%d, %v, %v), want (0, false, nil)", id, got, ok, err)
		}
		if cost := removes.Value() - before; cost != n {
			t.Fatalf("Remove(%d) of an absent id made %d exchanges, want %d", id, cost, n)
		}
	}
}

// TestRemoveStaleFilter: filters that miss ids or claim every id cost
// exchanges but never change an answer. Ids another coordinator added are
// still found, and with every filter forced to all ones or all zeros Remove
// gives the old walk's answers at the old walk's cost: the holder's position
// plus one, or every node for an absent id.
func TestRemoveStaleFilter(t *testing.T) {
	c, ref, cl := routeCluster(t)
	co, removes := dialCounted(t, cl)
	other, _ := dialCounted(t, cl)
	n := int64(len(co.nodes))

	added := c.Queries(50, 13).Vectors
	for i := 0; i < added.Len(); i++ {
		id := int64(1<<32 + i)
		want, err := other.Add(id, added.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok, err := co.Remove(id); err != nil || !ok || got != want {
			t.Fatalf("Remove(%d) of an id another coordinator added = (%d, %v, %v), want (%d, true, nil)", id, got, ok, err, want)
		}
	}

	perm := rand.New(rand.NewSource(5)).Perm(c.Vectors.Len())
	for fi, fill := range []uint64{^uint64(0), 0} {
		for _, nc := range co.nodes {
			words := make([]uint64, len(nc.ids.Load().words))
			for i := range words {
				words[i] = fill
			}
			nc.ids.Store(&idFilter{words: words})
		}
		for _, i := range perm[fi*100 : (fi+1)*100] {
			id := int64(i)
			want, _ := ref.Remove(id)
			before := removes.Value()
			got, ok, err := co.Remove(id)
			if err != nil || !ok || got != want {
				t.Fatalf("filters of %#x: Remove(%d) = (%d, %v, %v), want (%d, true, nil)", fill, id, got, ok, err, want)
			}
			if cost := removes.Value() - before; cost != int64(want)+1 {
				t.Fatalf("filters of %#x: Remove(%d) on node %d made %d exchanges, want %d", fill, id, want, cost, want+1)
			}
		}
		before := removes.Value()
		if got, ok, err := co.Remove(-1); got != 0 || ok || err != nil || removes.Value()-before != n {
			t.Fatalf("filters of %#x: Remove of an absent id = (%d, %v, %v) in %d exchanges, want (0, false, nil) in %d",
				fill, got, ok, err, removes.Value()-before, n)
		}
	}
}

// TestRedialRefreshesFilter: a node that restarts holding other ids is
// routed by the filter of its new handshake once the coordinator redials it,
// and its old filter is gone.
func TestRedialRefreshesFilter(t *testing.T) {
	const dim = 4
	filterOf := func(ids ...int64) []uint64 {
		f := newIDFilter(len(ids))
		for _, id := range ids {
			f.add(id)
		}
		return f.words
	}
	holds := func(ids []int64, id int64) bool {
		for _, h := range ids {
			if h == id {
				return true
			}
		}
		return false
	}
	var asked [2]sync.Map // per node: id -> struct{}
	node := func(shard int, held func(connIdx int) []int64) (string, func()) {
		return fakeNode(t, speaks(wireVersion), func(connIdx int, req *Request) *Response {
			switch req.Op {
			case OpInfo:
				ids := held(connIdx)
				return &Response{ShardID: shard, Size: len(ids), Dim: dim, Centroid: make([]float32, dim), IDFilter: filterOf(ids...)}
			case OpStats:
				if shard == 1 && connIdx == 0 {
					return nil // restart: hang up, so the next send redials
				}
				return &Response{ShardID: shard}
			case OpRemove:
				asked[shard].Store(req.ID, struct{}{})
				return &Response{ShardID: shard, OK: holds(held(connIdx), req.ID)}
			}
			return &Response{Err: "unexpected op"}
		})
	}
	before, after := []int64{1, 2, 3}, []int64{101, 102, 103}
	addr0, stop0 := node(0, func(int) []int64 { return []int64{50} })
	defer stop0()
	addr1, stop1 := node(1, func(connIdx int) []int64 {
		if connIdx == 0 {
			return before
		}
		return after
	})
	defer stop1()
	co, err := DialOpts([]string{addr0, addr1}, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()

	// routed checks that Remove(id) answers (1, ok) and asks node 1 alone.
	routed := func(stage string, id int64, ok bool) {
		t.Helper()
		if co.nodes[0].ids.Load().mayHold(id) {
			t.Fatalf("%s: node 0's filter claims id %d; the test needs ids it rules out", stage, id)
		}
		got, gotOK, err := co.Remove(id)
		if err != nil || gotOK != ok || ok && got != 1 {
			t.Fatalf("%s: Remove(%d) = (%d, %v, %v), want (1, %v, nil)", stage, id, got, gotOK, err, ok)
		}
		if _, hit := asked[0].Load(id); hit {
			t.Fatalf("%s: Remove(%d) asked node 0, whose filter rules the id out", stage, id)
		}
	}
	routed("before the restart", 2, true)

	if _, err := co.Stats(); err == nil {
		t.Fatal("Stats across the restart must fail")
	}
	if _, err := co.Stats(); err != nil {
		t.Fatalf("Stats after the restart (the redial): %v", err)
	}
	for _, id := range after {
		routed("after the redial", id, true)
	}
	nc := co.nodes[1].ids.Load()
	for _, id := range before {
		if nc.mayHold(id) {
			t.Logf("the new filter falsely claims old id %d", id)
			continue
		}
		if got, ok, err := co.Remove(id); got != 0 || ok || err != nil {
			t.Fatalf("Remove(%d) of an id the restarted node dropped = (%d, %v, %v), want (0, false, nil)", id, got, ok, err)
		}
		if _, hit := asked[0].Load(id); !hit {
			t.Fatalf("Remove(%d) of an id no filter claims did not walk node 0", id)
		}
	}
}

// TestCloseReleasesCoordinator: the load-imbalance and energy collectors a
// coordinator registers close over it. After Close, a scrape no longer runs
// them, and nothing the registry holds keeps the coordinator reachable.
func TestCloseReleasesCoordinator(t *testing.T) {
	const dim = 4
	addr, stop := fakeNode(t, speaks(wireVersion), func(_ int, req *Request) *Response { return infoResponse(dim) })
	defer stop()
	reg := telemetry.NewRegistry()
	released := make(chan struct{})
	func() {
		co, err := DialOpts([]string{addr}, DialOptions{Timeout: time.Second, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := co.EnableEnergyModel(hwmodel.XeonGold6448Y, 256); err != nil {
			t.Fatal(err)
		}
		reg.Snapshot()
		runtime.SetFinalizer(co, func(*Coordinator) { close(released) })
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	imbalance := reg.Gauge("hermes_coordinator_load_imbalance_ratio", "")
	ghz := reg.Gauge("hermes_energy_model_ghz", "", "node", "0")
	imbalance.Set(-1)
	ghz.Set(-1)
	reg.Snapshot()
	if imbalance.Value() != -1 || ghz.Value() != -1 {
		t.Fatalf("a scrape after Close ran the coordinator's collectors (imbalance %v, ghz %v)", imbalance.Value(), ghz.Value())
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(reg) // the registry, not its own collection, let go of the coordinator
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the closed coordinator is still reachable after 20 collections")
}
