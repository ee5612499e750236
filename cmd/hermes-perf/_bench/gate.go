package main

import (
	"fmt"
	"sort"

	"repro/internal/flatindex"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// gate collects what the correctness checks attempted and what went wrong.
// Any problem makes the run incorrect and the command exit non-zero.
type gate struct {
	attempted, failed int64
	problems          []string
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.problems) < 10 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// evalSet is the query set recall is measured on, with the exact neighbours
// of each query over the whole corpus. Like the corpus it does not change
// with -seed: recall is a property of the index and the search parameters,
// and on a fixed set it is exact, so any drop is a real one.
type evalSet struct {
	queries *vec.Matrix
	truth   [][]int64
}

// newEvalSet must be called while s.corpus is still held.
func newEvalSet(s *system, n int) evalSet {
	flat := flatindex.New(s.w.dim)
	flat.AddBatch(0, s.corpus.Vectors)
	qs := s.corpus.Queries(n, corpusSeed+1).Vectors
	return evalSet{queries: qs, truth: flat.GroundTruth(qs, s.w.params.K)}
}

// sameNeighbours reports whether two answers hold the same documents at the
// same scores in the same order, except that documents whose scores tie may
// come in either order: the paths break ties differently (seed 41 has such a
// pair on batched_open) and neither order is wrong.
func sameNeighbours(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = tiesByID(a), tiesByID(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tiesByID returns ns, which is ordered by score, with every run of equal
// scores ordered by ID.
func tiesByID(ns []vec.Neighbor) []vec.Neighbor {
	out := append([]vec.Neighbor(nil), ns...)
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].Score == out[i].Score {
			j++
		}
		run := out[i:j]
		sort.Slice(run, func(x, y int) bool { return run[x].ID < run[y].ID })
		i = j
	}
	return out
}

// matchesStore checks, on the first gateQueries pool queries, that the
// served path returns the same neighbour IDs in the same order as an
// in-process Store.Search: once query by query through Coordinator.Search
// and once as grouped batches through Coordinator.SearchBatch. tamper, when
// set, is the smoke test's hook for planting a wrong answer. The store
// shares its indexes with the nodes, so nothing may be writing meanwhile.
func (g *gate) matchesStore(s *system, tamper func([]vec.Neighbor)) {
	want := make([][]vec.Neighbor, gateQueries)
	for i := range want {
		want[i], _ = s.store.Search(s.query(i), s.w.params)
	}
	for i := range want {
		g.attempted++
		res, err := s.co.Search(s.query(i), s.w.params)
		if err != nil {
			g.fail("gate query %d: %v", i, err)
			continue
		}
		if tamper != nil {
			tamper(res.Neighbors)
		}
		if !sameNeighbours(res.Neighbors, want[i]) {
			g.fail("gate query %d: coordinator returned %v, store %v", i, res.Neighbors, want[i])
		}
	}
	for lo := 0; lo < gateQueries; lo += batchMax {
		hi := min(lo+batchMax, gateQueries)
		batch := make([][]float32, 0, batchMax)
		for i := lo; i < hi; i++ {
			batch = append(batch, s.query(i))
		}
		g.attempted += int64(len(batch))
		res, err := s.co.SearchBatch(batch, s.w.params)
		if err != nil {
			g.fail("gate batch at %d: %v", lo, err)
			continue
		}
		for j, ns := range res.Results {
			if !sameNeighbours(ns, want[lo+j]) {
				g.fail("gate query %d: grouped batch returned %v, store %v", lo+j, ns, want[lo+j])
			}
		}
	}
}

// recall searches the evaluation set through the coordinator and returns
// the mean share of true neighbours found.
func (g *gate) recall(s *system, ev evalSet) float64 {
	got := make([][]int64, len(ev.truth))
	for i := range ev.truth {
		g.attempted++
		res, err := s.co.Search(ev.queries.Row(i), s.w.params)
		if err != nil {
			g.fail("recall query %d: %v", i, err)
			continue
		}
		for _, n := range res.Neighbors {
			got[i] = append(got[i], n.ID)
		}
	}
	r := metrics.MeanRecall(got, ev.truth, s.w.params.K)
	if r < s.w.recallFloor {
		g.fail("recall@%d %.4f is below the floor %.2f", s.w.params.K, r, s.w.recallFloor)
	}
	return r
}

// ledger checks the cluster against what the writer did, once writes have
// stopped: node sizes add up to the ledger, no removed document is returned
// for its own vector, and every added one is in the top-K of its own vector.
func (g *gate) ledger(w *writer) {
	s := w.s
	g.attempted++
	stats, err := s.co.Stats()
	if err != nil {
		g.fail("node stats: %v", err)
		return
	}
	var size int
	for _, st := range stats {
		size += st.Size
	}
	if size != w.live {
		g.fail("nodes hold %d documents, the writer's ledger says %d", size, w.live)
	}
	for i, v := range w.victimVecs {
		if !w.removed[w.victims[i]] {
			break // victims are removed in order
		}
		g.attempted++
		res, err := s.co.Search(v, s.w.params)
		if err != nil {
			g.fail("search for removed document %d: %v", w.victims[i], err)
			continue
		}
		for _, n := range res.Neighbors {
			if w.removed[n.ID] {
				g.fail("removed document %d was returned", n.ID)
			}
		}
	}
	step := max(len(w.added)/gateQueries, 1)
	for i := 0; i < len(w.added); i += step {
		doc := w.added[i]
		g.attempted++
		res, err := s.co.Search(doc.vec, s.w.params)
		if err != nil {
			g.fail("search for added document %d: %v", doc.id, err)
			continue
		}
		found := false
		for _, n := range res.Neighbors {
			found = found || n.ID == doc.id
		}
		if !found {
			g.fail("added document %d is not in the top %d of its own vector", doc.id, s.w.params.K)
		}
	}
}
