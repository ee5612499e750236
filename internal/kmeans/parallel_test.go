package kmeans

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// The row chunks and the concurrent seed sweep must keep the sequential
// rules: the first seed wins a tie, the first failing seed's error is the
// one returned, and every row gets the nearest centroid whatever chunk it
// lands in. Each test runs at GOMAXPROCS 1 to 4 and restores the setting.
func forProcs(t *testing.T, fn func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

func TestBestSeedTieGoesToEarlierSeed(t *testing.T) {
	// Two equal, well-separated blobs: every seed finds the same two
	// clusters, so every result has imbalance 1 and the same inertia bits.
	data, _ := blobs(600, 2, 4, 3)
	seeds := []int64{9, 3, 7, 5}
	var first *Result
	for _, s := range seeds {
		r, err := Train(data, Config{K: 2, PlusPlus: true, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
		} else if r.Imbalance() != first.Imbalance() || math.Float64bits(r.Inertia) != math.Float64bits(first.Inertia) {
			t.Fatalf("fixture does not tie: seed %d gives (%v, %v), seed %d (%v, %v)",
				s, r.Imbalance(), r.Inertia, seeds[0], first.Imbalance(), first.Inertia)
		}
	}
	forProcs(t, func(procs int) {
		for _, order := range [][]int64{seeds, {5, 7, 3, 9}} {
			_, seed, err := BestSeed(data, Config{K: 2, PlusPlus: true}, order)
			if err != nil {
				t.Fatal(err)
			}
			if seed != order[0] {
				t.Fatalf("GOMAXPROCS %d: seeds %v tie but BestSeed chose %d, want the first", procs, order, seed)
			}
		}
	})
}

func TestBestSeedReturnsFirstFailingSeedsError(t *testing.T) {
	data, _ := blobs(3, 1, 2, 1)
	forProcs(t, func(procs int) {
		_, _, err := BestSeed(data, Config{K: 5}, []int64{4, 2, 9})
		if err == nil || !strings.Contains(err.Error(), "seed 4:") {
			t.Fatalf("GOMAXPROCS %d: error %v, want the first seed's (seed 4)", procs, err)
		}
	})
}

func TestAssignAllMatchesArgMinAtChunkEdges(t *testing.T) {
	centroids, _ := blobs(7, 7, 5, 2)
	for _, n := range []int{0, 1, minChunkRows - 1, minChunkRows, minChunkRows + 1} {
		data, _ := blobs(n, 7, 5, int64(n))
		want := make([]int, n)
		for i := range want {
			want[i], _ = centroids.ArgMinL2(data.Row(i))
		}
		forProcs(t, func(procs int) {
			got := AssignAll(data, centroids)
			if len(got) != n {
				t.Fatalf("GOMAXPROCS %d n %d: %d assignments", procs, n, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS %d n %d row %d: AssignAll %d, ArgMinL2 %d", procs, n, i, got[i], want[i])
				}
			}
		})
	}
}
