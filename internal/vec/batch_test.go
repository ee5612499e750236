package vec

import (
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, n, dim int) *Matrix {
	m := NewMatrix(n, dim)
	for i := range m.Data() {
		m.Data()[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestL2SquaredBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Cover dims not divisible by 4 and row counts not on block boundaries.
	for _, dim := range []int{1, 3, 4, 7, 16, 33, 128} {
		for _, n := range []int{1, 2, 5, 17, 64} {
			m := randomMatrix(rng, n, dim)
			q := make([]float32, dim)
			for d := range q {
				q[d] = float32(rng.NormFloat64())
			}
			out := make([]float32, n)
			L2SquaredBatch(q, m.Data(), n, out)
			for i := 0; i < n; i++ {
				want := L2Squared(q, m.Row(i))
				if out[i] != want {
					t.Fatalf("dim=%d n=%d row %d: batch %v != scalar %v", dim, n, i, out[i], want)
				}
			}
		}
	}
}

func TestL2SquaredBatchPartialPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 10, 6)
	q := make([]float32, 6)
	out := make([]float32, 10)
	// n smaller than the available rows only fills out[:n].
	L2SquaredBatch(q, m.Data(), 4, out)
	for i := 0; i < 4; i++ {
		if out[i] != L2Squared(q, m.Row(i)) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestTopKResetReusesBuffer(t *testing.T) {
	tk := NewTopK(3)
	for i := 0; i < 10; i++ {
		tk.Push(int64(i), float32(10-i))
	}
	first := tk.Results()
	if len(first) != 3 || first[0].ID != 9 {
		t.Fatalf("first round = %v", first)
	}
	tk.Reset(2)
	for i := 0; i < 5; i++ {
		tk.Push(int64(100+i), float32(i))
	}
	second := tk.Results()
	if len(second) != 2 || second[0].ID != 100 || second[1].ID != 101 {
		t.Fatalf("second round = %v", second)
	}
	// Reset to a larger k than capacity still works.
	tk.Reset(8)
	for i := 0; i < 4; i++ {
		tk.Push(int64(i), float32(i))
	}
	if got := tk.Results(); len(got) != 4 {
		t.Fatalf("third round = %v", got)
	}
}

func TestTopKAppendResults(t *testing.T) {
	tk := NewTopK(4)
	for i := 0; i < 8; i++ {
		tk.Push(int64(i), float32(8-i))
	}
	dst := make([]Neighbor, 0, 16)
	dst = append(dst, Neighbor{ID: -1, Score: -1})
	dst = tk.AppendResults(dst)
	if len(dst) != 5 {
		t.Fatalf("len = %d, want 5 (sentinel + 4)", len(dst))
	}
	if dst[0].ID != -1 {
		t.Fatalf("prefix overwritten: %v", dst[0])
	}
	for i := 2; i < len(dst); i++ {
		if dst[i].Score < dst[i-1].Score {
			t.Fatalf("results not ascending: %v", dst[1:])
		}
	}
	// Zero-allocation contract with sufficient capacity.
	allocs := testing.AllocsPerRun(100, func() {
		tk.Reset(4)
		for i := 0; i < 8; i++ {
			tk.Push(int64(i), float32(i))
		}
		dst = tk.AppendResults(dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendResults allocated %v times per run", allocs)
	}
}
