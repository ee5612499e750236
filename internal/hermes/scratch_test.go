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

// TestSearchScratchSteadyStateAllocs bounds per-call heap allocations of
// every entry point: with warmed pool scratch only the caller-visible
// outputs (result slices, DeepShards, a batch's result slice) may allocate.
// Each bound is the count measured before the entry points shared one
// executor. The Search row runs twice more with the slow-scan detector armed
// at a threshold no scan crosses: it reads the clock around every shard
// scan, but arming events must not add a single allocation to the scan path.
func TestSearchScratchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts, inflating alloc counts")
	}
	c := testCorpus(t, 900, 4)
	st := buildStore(t, c.Vectors, 4)
	q := c.Queries(1, 13).Vectors.Row(0)
	batch := rowsOf(c.Queries(8, 17).Vectors)
	p := DefaultParams()
	measure := func(search func()) float64 {
		for i := 0; i < 4; i++ { // warm the pool scratch
			search()
		}
		return testing.AllocsPerRun(50, search)
	}
	search := func() { st.Search(q, p) }
	for _, row := range []struct {
		name   string
		search func()
		bound  float64
	}{
		{"Search", search, 4},
		{"SearchAll", func() { st.SearchAll(q, p) }, 4},
		{"SearchCentroid", func() { st.SearchCentroid(q, p) }, 4},
		{"SearchFirstN", func() { st.SearchFirstN(q, p, 2) }, 3},
		{"SearchGrouped/batch=8", func() { st.SearchGrouped(batch, p) }, 33},
	} {
		if allocs := measure(row.search); allocs > row.bound {
			t.Errorf("%s: %v allocations per call, want <= %v", row.name, allocs, row.bound)
		}
	}
	allocs := measure(search)
	st.SetEvents(evlog.New(evlog.Config{Capacity: 64}), time.Hour)
	defer st.SetEvents(nil, 0)
	if armed := measure(search); armed != allocs {
		t.Fatalf("armed-quiet slow-scan detector: %v allocations per search, want %v as unarmed", armed, allocs)
	}
}
