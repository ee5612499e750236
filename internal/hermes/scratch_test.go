package hermes

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/evlog"
)

// TestSearchScratchReuseIsDeterministic pins the pooled-scratch search paths
// to identical output across repeated calls (the scratch must carry no state
// between queries) and across strategies sharing the same pool.
func TestSearchScratchReuseIsDeterministic(t *testing.T) {
	c := testCorpus(t, 900, 4)
	st := buildStore(t, c.Vectors, 4)
	qs := c.Queries(6, 11)
	p := DefaultParams()
	type runOut struct {
		ids  [][]int64
		deep [][]int
	}
	run := func() runOut {
		var o runOut
		for i := 0; i < qs.Vectors.Len(); i++ {
			q := qs.Vectors.Row(i)
			res, stats := st.Search(q, p)
			o.ids = append(o.ids, idsOf(res))
			o.deep = append(o.deep, stats.DeepShards)
			// Interleave the other strategies so their scratch use would
			// corrupt Search's state if anything leaked.
			st.SearchCentroid(q, p)
			st.SearchAll(q, p)
			st.SearchFirstN(q, p, 2)
		}
		return o
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d diverged from first run", trial)
		}
	}
}

// TestSearchScratchSteadyStateAllocs bounds per-query heap allocations on the
// full hierarchical path: with warmed pool scratch only the caller-visible
// outputs (result slice, DeepShards) may allocate. A second case arms the
// slow-scan detector with a threshold no scan crosses: it reads the clock
// around every shard scan, but arming events must not add a single
// allocation to the scan path.
func TestSearchScratchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts, inflating alloc counts")
	}
	c := testCorpus(t, 900, 4)
	st := buildStore(t, c.Vectors, 4)
	q := c.Queries(1, 13).Vectors.Row(0)
	p := DefaultParams()
	measure := func() float64 {
		for i := 0; i < 4; i++ { // warm the pool scratch
			st.Search(q, p)
		}
		return testing.AllocsPerRun(50, func() {
			st.Search(q, p)
		})
	}
	allocs := measure()
	// Expected survivors: the results slice and the DeepShards slice (each
	// possibly with one growth step). Anything above that means scratch
	// leaked back into the hot path.
	if allocs > 4 {
		t.Fatalf("%v allocations per hierarchical search, want <= 4", allocs)
	}
	st.SetEvents(evlog.New(evlog.Config{Capacity: 64}), time.Hour)
	defer st.SetEvents(nil, 0)
	if armed := measure(); armed != allocs {
		t.Fatalf("armed-quiet slow-scan detector: %v allocations per search, want %v as unarmed", armed, allocs)
	}
}
