package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// batchTolerance is the documented FP-reassociation bound between the scalar
// Distancer and the multi-lane batch kernels (DESIGN.md §8).
const batchTolerance = 1e-4

func relDiff(a, b float32) float64 {
	d := math.Abs(float64(a) - float64(b))
	scale := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// trainedQuantizers builds one trained instance of every scheme at dim.
// PQ/OPQ are skipped when dim is not divisible by their m.
func trainedQuantizers(t testing.TB, dim int, rng *rand.Rand) []Quantizer {
	t.Helper()
	data := vec.NewMatrix(600, dim)
	for i := range data.Data() {
		data.Data()[i] = float32(rng.NormFloat64())
	}
	qs := []Quantizer{NewFlat(dim), NewSQ(dim, 8), NewSQ(dim, 4)}
	if dim%4 == 0 {
		pq, err := NewPQ(dim, dim/4, 8, 11)
		if err != nil {
			t.Fatal(err)
		}
		opq, err := NewOPQ(dim, dim/4, 8, 13)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, pq, opq)
	}
	for _, qz := range qs {
		if err := qz.Train(data); err != nil {
			t.Fatalf("%s train: %v", qz.Name(), err)
		}
	}
	return qs
}

// TestBatchMatchesScalar is the batch/scalar equivalence property: for every
// quantizer, DistanceBatch output matches the scalar Distancer within the
// documented tolerance on random inputs, including batch lengths that are not
// multiples of any block size and dims not divisible by 4.
func TestBatchMatchesScalar(t *testing.T) {
	// 13: odd dim exercises the SQ4 nibble tail; 12: dim%8==4 exercises the
	// SQ8 assembly kernel's four-wide tail step.
	for _, dim := range []int{6, 12, 13, 16, 64} {
		rng := rand.New(rand.NewSource(int64(dim)))
		for _, qz := range trainedQuantizers(t, dim, rng) {
			t.Run(fmt.Sprintf("%s/dim%d", qz.Name(), dim), func(t *testing.T) {
				cs := qz.CodeSize()
				for _, n := range []int{1, 3, 17, 257} { // off-block lengths
					codes := make([]byte, n*cs)
					v := make([]float32, dim)
					for i := 0; i < n; i++ {
						for d := range v {
							v[d] = float32(rng.NormFloat64())
						}
						qz.Encode(v, codes[i*cs:(i+1)*cs])
					}
					q := make([]float32, dim)
					for d := range q {
						q[d] = float32(rng.NormFloat64())
					}

					scalar := qz.NewDistancer(q)
					kernel := NewBatchDistancer(qz)
					kernel.BindQuery(q)
					out := make([]float32, n)
					kernel.DistanceBatch(codes, n, out)
					for i := 0; i < n; i++ {
						want := scalar(codes[i*cs : (i+1)*cs])
						if rd := relDiff(out[i], want); rd > batchTolerance {
							t.Fatalf("n=%d code %d: batch %v vs scalar %v (rel %v)", n, i, out[i], want, rd)
						}
						if got := kernel.Distance(codes[i*cs : (i+1)*cs]); relDiff(got, want) > batchTolerance {
							t.Fatalf("n=%d code %d: Distance %v vs scalar %v", n, i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestBatchRebind checks that a kernel re-bound to a new query forgets the
// old one — the property the pooled searchers rely on.
func TestBatchRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, qz := range trainedQuantizers(t, 16, rng) {
		cs := qz.CodeSize()
		v := make([]float32, 16)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		code := make([]byte, cs)
		qz.Encode(v, code)

		q1 := make([]float32, 16)
		q2 := make([]float32, 16)
		for d := range q1 {
			q1[d] = float32(rng.NormFloat64())
			q2[d] = float32(rng.NormFloat64())
		}
		kernel := NewBatchDistancer(qz)
		kernel.BindQuery(q1)
		_ = kernel.Distance(code)
		kernel.BindQuery(q2)
		got := kernel.Distance(code)
		want := qz.NewDistancer(q2)(code)
		if relDiff(got, want) > batchTolerance {
			t.Fatalf("%s: rebound kernel %v vs scalar %v", qz.Name(), got, want)
		}
	}
}

// TestFlatBatchBitIdentical pins the stronger Flat contract: same lane
// structure as the scalar path means bit-identical results.
func TestFlatBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{5, 8, 127} {
		f := NewFlat(dim)
		cs := f.CodeSize()
		const n = 33
		codes := make([]byte, n*cs)
		v := make([]float32, dim)
		for i := 0; i < n; i++ {
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			f.Encode(v, codes[i*cs:(i+1)*cs])
		}
		q := make([]float32, dim)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		scalar := f.NewDistancer(q)
		kernel := NewBatchDistancer(f)
		kernel.BindQuery(q)
		out := make([]float32, n)
		kernel.DistanceBatch(codes, n, out)
		for i := 0; i < n; i++ {
			if want := scalar(codes[i*cs : (i+1)*cs]); out[i] != want {
				t.Fatalf("dim=%d code %d: %v != %v", dim, i, out[i], want)
			}
		}
	}
}

// stubQuantizer has no native batch kernel (explicit delegation rather than
// embedding, so Flat's NewBatchDistancer is not promoted); it exercises the
// scalar fallback adapter.
type stubQuantizer struct{ f *Flat }

func (s stubQuantizer) Name() string                       { return "Stub" }
func (s stubQuantizer) Dim() int                           { return s.f.Dim() }
func (s stubQuantizer) CodeSize() int                      { return s.f.CodeSize() }
func (s stubQuantizer) Train(m *vec.Matrix) error          { return s.f.Train(m) }
func (s stubQuantizer) Encode(v []float32, code []byte)    { s.f.Encode(v, code) }
func (s stubQuantizer) Decode(code []byte, out []float32)  { s.f.Decode(code, out) }
func (s stubQuantizer) NewDistancer(q []float32) Distancer { return s.f.NewDistancer(q) }

func TestScalarFallbackAdapter(t *testing.T) {
	f := NewFlat(8)
	stub := stubQuantizer{f}
	kernel := NewBatchDistancer(stub)
	if _, ok := kernel.(*scalarBatch); !ok {
		t.Fatalf("expected scalar fallback adapter, got %T", kernel)
	}
	rng := rand.New(rand.NewSource(3))
	v := make([]float32, 8)
	q := make([]float32, 8)
	for d := range v {
		v[d] = float32(rng.NormFloat64())
		q[d] = float32(rng.NormFloat64())
	}
	code := make([]byte, f.CodeSize())
	f.Encode(v, code)
	kernel.BindQuery(q)
	var out [1]float32
	kernel.DistanceBatch(code, 1, out[:])
	if want := f.NewDistancer(q)(code); out[0] != want {
		t.Fatalf("adapter %v != scalar %v", out[0], want)
	}
}

// Native kernels must allocate nothing per query for SQ/Flat (the serving
// operating points); PQ/OPQ keep their table but may not allocate either.
func TestBatchBindQueryZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, qz := range trainedQuantizers(t, 16, rng) {
		kernel := NewBatchDistancer(qz)
		q := make([]float32, 16)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		kernel.BindQuery(q) // warm
		allocs := testing.AllocsPerRun(50, func() { kernel.BindQuery(q) })
		if allocs != 0 {
			t.Fatalf("%s: BindQuery allocated %v times per run", qz.Name(), allocs)
		}
	}
}

// checkSQ8PositionIndependent sweeps every dim around the 4- and 8-lane
// boundaries (dims not divisible by 4 take the Go loop, the rest the
// assembly on amd64) and every row count around the 4-code block and the
// 256-code scan block: a code's distance is the same bits whether it is
// scored alone, mid-block or in a tail, from a code slice at any byte offset.
func checkSQ8PositionIndependent(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	dims := []int{128, 255, 256}
	for d := 1; d <= 67; d++ {
		dims = append(dims, d)
	}
	for _, dim := range dims {
		train := vec.NewMatrix(32, dim)
		for i := range train.Data() {
			train.Data()[i] = float32(rng.NormFloat64())
		}
		sq := NewSQ(dim, 8)
		if err := sq.Train(train); err != nil {
			t.Fatal(err)
		}
		kernel := sq.NewBatchDistancer()
		q := make([]float32, dim)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		kernel.BindQuery(q)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257} {
			if n > 9 && dim > 67 {
				continue
			}
			buf := make([]byte, n*dim+1)
			rng.Read(buf)
			codes := buf[1:] // odd byte offset
			out := make([]float32, n)
			kernel.DistanceBatch(codes, n, out)
			for i := 0; i < n; i++ {
				alone := kernel.Distance(codes[i*dim : (i+1)*dim])
				if math.Float32bits(alone) != math.Float32bits(out[i]) {
					t.Fatalf("dim=%d n=%d code %d: in batch %v, alone %v", dim, n, i, out[i], alone)
				}
			}
			if n > 5 {
				part := make([]float32, n-3)
				kernel.DistanceBatch(codes[3*dim:], n-3, part)
				for i, d := range part {
					if math.Float32bits(d) != math.Float32bits(out[3+i]) {
						t.Fatalf("dim=%d n=%d code %d: shifted batch %v != %v", dim, n, 3+i, d, out[3+i])
					}
				}
			}
		}
	}
}

func TestSQ8BatchPositionIndependent(t *testing.T) { checkSQ8PositionIndependent(t) }
