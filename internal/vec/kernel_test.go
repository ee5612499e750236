package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelDims and kernelRows are the shapes every kernel property test
// sweeps: each dim around the 4- and 8-lane boundaries plus the serving
// sizes, each row count around the 4-row block plus the 256-row scan block.
func kernelDims() []int {
	dims := make([]int, 0, 70)
	for d := 1; d <= 67; d++ {
		dims = append(dims, d)
	}
	return append(dims, 128, 255, 256)
}

func kernelRows() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257} }

// offsetFloats returns n random float32s starting off elements into a larger
// allocation, so the kernels see every 4-byte alignment.
func offsetFloats(rng *rand.Rand, n, off int) []float32 {
	buf := make([]float32, n+off)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64())
	}
	return buf[off : off+n : off+n]
}

// The dispatched kernel (SSE2 assembly on amd64) is bit-identical to the Go
// reference loop and to a per-row L2Squared, at every dim, row count and
// slice offset: a row's distance is a pure function of (q, row), wherever the
// row sits in a block.
func TestL2SquaredBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, dim := range kernelDims() {
		for _, n := range kernelRows() {
			if n > 9 && dim > 67 {
				continue // the big×big corner adds time, not coverage
			}
			off := (dim + n) % 4 // 0..3 elements: odd offsets included
			q := offsetFloats(rng, dim, (off+1)%4)
			data := offsetFloats(rng, n*dim, off)
			got := offsetFloats(rng, n+1, (off+2)%4)
			ref := make([]float32, n+1)
			sentinel := got[n]
			ref[n] = sentinel
			L2SquaredBatch(q, data, n, got)
			l2SquaredBatchGo(q, data, n, ref)
			for i := 0; i <= n; i++ {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("dim=%d n=%d row %d: kernel %x != reference %x", dim, n, i,
						math.Float32bits(got[i]), math.Float32bits(ref[i]))
				}
			}
			for i := 0; i < n; i++ {
				want := L2Squared(q, data[i*dim:(i+1)*dim])
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("dim=%d n=%d row %d: kernel %v != L2Squared %v", dim, n, i, got[i], want)
				}
			}
		}
	}
}

// A row scored alone, as the tail of a block, or inside a 4-row pass gets
// the same bits.
func TestL2SquaredBatchPositionIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, dim := range []int{3, 7, 30, 32, 64, 255, 256} {
		const n = 11
		q := offsetFloats(rng, dim, 1)
		data := offsetFloats(rng, n*dim, 3)
		all := make([]float32, n)
		L2SquaredBatch(q, data, n, all)
		for start := 0; start < n; start++ {
			for cnt := 1; start+cnt <= n; cnt++ {
				part := make([]float32, cnt)
				L2SquaredBatch(q, data[start*dim:], cnt, part)
				for i := range part {
					if math.Float32bits(part[i]) != math.Float32bits(all[start+i]) {
						t.Fatalf("dim=%d rows [%d,%d) row %d: %v != %v", dim, start, start+cnt, i, part[i], all[start+i])
					}
				}
			}
		}
	}
}

// argMinRef is ArgMinL2 as it was before the batch kernel: one L2Squared per
// row, first minimum wins.
func argMinRef(m *Matrix, q []float32) (int, float32) {
	best, bestDist := 0, L2Squared(q, m.Row(0))
	for i := 1; i < m.Len(); i++ {
		if d := L2Squared(q, m.Row(i)); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

func TestArgMinL2MatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, dim := range []int{1, 4, 7, 32, 67} {
		for _, n := range []int{1, 2, 5, 255, 256, 257, 600} {
			m := randomMatrix(rng, n, dim)
			// Constructed ties: duplicate rows on both sides of the 256-row
			// block boundary, and make one of the copies the nearest row.
			q := append([]float32(nil), m.Row(n/2)...)
			q[0] += 0.25
			for _, dup := range []int{n - 1, n / 3, 255, 256} {
				if dup >= 0 && dup < n {
					copy(m.Row(dup), m.Row(n/2))
				}
			}
			for trial := 0; trial < 4; trial++ {
				if trial > 0 {
					for d := range q {
						q[d] = float32(rng.NormFloat64())
					}
				}
				gotI, gotD := m.ArgMinL2(q)
				wantI, wantD := argMinRef(m, q)
				if gotI != wantI || math.Float32bits(gotD) != math.Float32bits(wantD) {
					t.Fatalf("dim=%d n=%d trial %d: ArgMinL2 = (%d,%v), row loop = (%d,%v)", dim, n, trial, gotI, gotD, wantI, wantD)
				}
			}
		}
	}
}

func TestArgMinL2DoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := randomMatrix(rng, 300, 32)
	q := m.Row(7)
	if allocs := testing.AllocsPerRun(50, func() { m.ArgMinL2(q) }); allocs != 0 {
		t.Fatalf("ArgMinL2 allocated %v times per run", allocs)
	}
}

// TopK orders candidates by (score, id), so the retained set and its order
// do not depend on the order candidates were offered in.
func TestTopKTotalOrderOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60) + 1
		k := rng.Intn(12) + 1
		cands := make([]Neighbor, n)
		for i := range cands {
			// Few distinct scores: ties at the k boundary are the norm.
			cands[i] = Neighbor{ID: int64(i), Score: float32(rng.Intn(4))}
		}
		var first []Neighbor
		for perm := 0; perm < 4; perm++ {
			rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			tk := NewTopK(k)
			for _, c := range cands {
				tk.Push(c.ID, c.Score)
			}
			res := tk.Results()
			for i := 1; i < len(res); i++ {
				a, b := res[i-1], res[i]
				if a.Score > b.Score || (a.Score == b.Score && a.ID >= b.ID) {
					t.Fatalf("results not in (score,id) order: %v", res)
				}
			}
			if perm == 0 {
				first = res
				continue
			}
			if fmt.Sprint(res) != fmt.Sprint(first) {
				t.Fatalf("trial %d: offer order changed the result:\n%v\n%v", trial, first, res)
			}
		}
	}
}

func BenchmarkL2SquaredScalarLoop(b *testing.B) {
	for _, dim := range []int{32, 64, 256} {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			const n = 1024
			m := randomMatrix(rng, n, dim)
			q := m.Row(0)
			b.SetBytes(int64(n * dim * 4))
			b.ResetTimer()
			var sink float32
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					sink += L2Squared(q, m.Row(j))
				}
			}
			_ = sink
		})
	}
}

func BenchmarkL2SquaredBatch(b *testing.B) {
	for _, dim := range []int{32, 64, 256} {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			const n = 1024
			m := randomMatrix(rng, n, dim)
			q := m.Row(0)
			out := make([]float32, n)
			b.SetBytes(int64(n * dim * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				L2SquaredBatch(q, m.Data(), n, out)
			}
		})
	}
}
