package ivf

import (
	"reflect"
	"testing"

	"repro/internal/vec"
)

// TestSearchGroupCostConservation pins the cost ledger's conservation law for
// every kernel and both encoding modes: summed over a batch, the per-query
// exclusive+amortized code attributions reproduce the batch's distinct code
// traffic exactly, and the per-query cell counters reproduce the probe
// accounting — nothing double-counted, nothing dropped.
func TestSearchGroupCostConservation(t *testing.T) {
	data := gaussianData(700, 16, 171)
	queries := gaussianData(12, 16, 172)
	for name, cfg := range searchConfigs(t, 16) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			qs := make([][]float32, queries.Len())
			for i := range qs {
				qs[i] = queries.Row(i)
			}
			_, stats, costs := searchGroup(ix, qs, 7, 4, nil)
			var codes int64
			var cells, sharedCells int
			for qi, c := range costs {
				if c.CellsProbed != 4 {
					t.Fatalf("query %d probed %d cells, want 4", qi, c.CellsProbed)
				}
				if c.SharedCells > c.CellsProbed {
					t.Fatalf("query %d: %d shared cells > %d probed", qi, c.SharedCells, c.CellsProbed)
				}
				if c.CodesExclusive < 0 || c.CodesAmortized < 0 {
					t.Fatalf("query %d: negative attribution %+v", qi, c)
				}
				codes += c.CodesExclusive + c.CodesAmortized
				cells += c.CellsProbed
				sharedCells += c.SharedCells
			}
			if codes != int64(stats.VectorsScanned) {
				t.Fatalf("attributed %d codes != %d distinct streamed", codes, stats.VectorsScanned)
			}
			if cells != stats.CellsScanned+stats.SharedCellScans {
				t.Fatalf("attributed %d cells != %d distinct + %d shared",
					cells, stats.CellsScanned, stats.SharedCellScans)
			}
			// Every saved cell scan means >= 2 queries marked that stream
			// shared; the shared-cell counters must cover all of them.
			if stats.SharedCellScans > 0 && sharedCells <= stats.SharedCellScans {
				t.Fatalf("%d shared-cell marks cannot account for %d saved scans",
					sharedCells, stats.SharedCellScans)
			}
		})
	}
}

// TestSearchGroupCostedPhasedEquivalence pins a batch given a *PhaseNanos to
// the untimed path: identical neighbors and identical ledger entries —
// timing only adds timestamps around the same code — with the phase
// breakdown populated only when asked for.
func TestSearchGroupCostedPhasedEquivalence(t *testing.T) {
	data := gaussianData(600, 8, 181)
	queries := gaussianData(9, 8, 182)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 6, Seed: 3})
	qs := make([][]float32, queries.Len())
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	var tPh PhaseNanos
	plain, pStats, pCosts := searchGroup(ix, qs, 5, 3, nil)
	phased, tStats, tCosts := searchGroup(ix, qs, 5, 3, &tPh)
	if !reflect.DeepEqual(plain, phased) {
		t.Fatalf("phased results diverge:\n%v\n%v", plain, phased)
	}
	if pStats != tStats {
		t.Fatalf("stats diverge: %+v != %+v", pStats, tStats)
	}
	if !reflect.DeepEqual(pCosts, tCosts) {
		t.Fatalf("ledgers diverge:\n%+v\n%+v", pCosts, tCosts)
	}
	if tPh.Select <= 0 || tPh.Scan <= 0 || tPh.Merge <= 0 {
		t.Fatalf("phased run missing phase time: %+v", tPh)
	}
}

// TestSearchGroupCostedEarlyReturn pins the degenerate inputs: the ledger is
// index-aligned and zero when the search returns before scanning.
func TestSearchGroupCostedEarlyReturn(t *testing.T) {
	data := gaussianData(200, 8, 191)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 4, Seed: 7})
	qs := [][]float32{data.Row(0), data.Row(1)}
	var ph PhaseNanos
	_, _, costs := searchGroup(ix, qs, 0, 3, &ph)
	if len(costs) != len(qs) {
		t.Fatalf("got %d ledger entries, want %d", len(costs), len(qs))
	}
	for qi, c := range costs {
		if c != (CostStats{}) {
			t.Fatalf("query %d: early return left ledger %+v", qi, c)
		}
	}
	if ph != (PhaseNanos{}) {
		t.Fatalf("early return reported phases %+v", ph)
	}
}

// TestSearchGroupCostLedgerZeroAlloc extends the grouped steady-state
// allocation contract over the ledger reads: accumulating CostStats per query
// alongside the drains must stay allocation-free on the untraced path.
func TestSearchGroupCostLedgerZeroAlloc(t *testing.T) {
	data := gaussianData(600, 16, 195)
	queries := gaussianData(8, 16, 196)
	ix := buildIndex(t, data, Config{Dim: 16, NList: 8, Seed: 5})
	g := ix.NewSearcher()
	qs := make([][]float32, queries.Len())
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	buf := make([]CostStats, len(qs))
	out := make([]vec.Neighbor, 0, 16)
	for warm := 0; warm < 3; warm++ {
		g.SearchGroup(qs, 8, 6, nil)
		for i := range qs {
			out = g.AppendResults(i, out[:0])
			buf[i] = g.CostStats(i)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		g.SearchGroup(qs, 8, 6, nil)
		for i := range qs {
			out = g.AppendResults(i, out[:0])
			buf[i] = g.CostStats(i)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per grouped batch with ledger reads", allocs)
	}
}
