//go:build amd64

package quant

import (
	"math"
	"math/rand"
	"testing"
)

// sq8Model is the Go statement of what both SQ8 assembly kernels compute for
// dim%4 == 0: eight accumulator lanes (lo = dims 8k+0..3, hi = dims 8k+4..7),
// the dim%8 == 4 step into lo, reduced lo+hi then (l0+l2)+(l1+l3). No FMA.
func sq8Model(code []byte, qm, scale []float32) float32 {
	var lo, hi [4]float32
	term := func(d int) float32 {
		x := qm[d] - float32(code[d])*scale[d]
		return x * x
	}
	d := 0
	for ; d+8 <= len(qm); d += 8 {
		for j := 0; j < 4; j++ {
			lo[j] += term(d + j)
			hi[j] += term(d + 4 + j)
		}
	}
	if d < len(qm) {
		for j := 0; j < 4; j++ {
			lo[j] += term(d + j)
		}
	}
	var l [4]float32
	for j := range l {
		l[j] = lo[j] + hi[j]
	}
	return (l[0] + l[2]) + (l[1] + l[3])
}

// sq8Inputs returns random kernel inputs at odd offsets into their backing
// arrays, so the kernels see unaligned bases.
func sq8Inputs(rng *rand.Rand, dim, n int) (codes []byte, qm, scale []float32) {
	off := (dim/4 + n) % 4
	cbuf := make([]byte, n*dim+3)
	rng.Read(cbuf)
	codes = cbuf[off%3+1:][: n*dim : n*dim]
	fl := func(off int) []float32 {
		buf := make([]float32, dim+off)
		for i := range buf {
			buf[i] = float32(rng.NormFloat64())
		}
		return buf[off : off+dim : off+dim]
	}
	return codes, fl((off + 1) % 4), fl((off + 3) % 4)
}

// withSQ8Paths runs f once per SQ8 path this CPU offers, with the dispatch
// variable flipped accordingly.
func withSQ8Paths(t *testing.T, f func(t *testing.T, path string)) {
	saved := sq8UseAVX2
	defer func() { sq8UseAVX2 = saved }()
	sq8UseAVX2 = false
	f(t, "sse2")
	if !hasAVX2() {
		t.Log("no AVX2 on this CPU: SSE2 path only")
		return
	}
	sq8UseAVX2 = true
	f(t, "avx2")
}

// Every assembly path equals the lane model bit for bit, at every dim the
// kernels accept, every block/tail row count and odd slice offsets — hence
// AVX2 == SSE2, and a code's distance is a pure function of (query, code).
func TestSQ8AsmBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{128, 252, 256}
	for d := 4; d <= 68; d += 4 {
		dims = append(dims, d)
	}
	withSQ8Paths(t, func(t *testing.T, path string) {
		for _, dim := range dims {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257} {
				if n > 9 && dim > 68 {
					continue
				}
				codes, qm, scale := sq8Inputs(rng, dim, n)
				outBuf := make([]float32, n+2)
				out := outBuf[1:]
				sentinel := float32(-7)
				out[n] = sentinel
				sq8BatchAsm(codes, qm, scale, n, out)
				if out[n] != sentinel {
					t.Fatalf("%s dim=%d n=%d: wrote past out[:n]", path, dim, n)
				}
				for i := 0; i < n; i++ {
					code := codes[i*dim : (i+1)*dim]
					want := sq8Model(code, qm, scale)
					if math.Float32bits(out[i]) != math.Float32bits(want) {
						t.Fatalf("%s dim=%d n=%d code %d: kernel %x != model %x", path, dim, n, i,
							math.Float32bits(out[i]), math.Float32bits(want))
					}
					if one := sq8DotAsm(code, qm, scale); math.Float32bits(one) != math.Float32bits(want) {
						t.Fatalf("dim=%d code %d: sq8DotAsm %x != model %x", dim, i,
							math.Float32bits(one), math.Float32bits(want))
					}
				}
			}
		}
	})
}

// The SQ8 batch kernel end to end (BindQuery, dispatch, Go loop for dims not
// divisible by 4) is position independent on both assembly paths.
func TestSQ8BatchPositionIndependentBothPaths(t *testing.T) {
	withSQ8Paths(t, func(t *testing.T, _ string) { checkSQ8PositionIndependent(t) })
}
