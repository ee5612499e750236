package quant

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vec"
)

// BatchDistancer is a reusable, query-bound batch ADC kernel: where the
// scalar Distancer pays an indirect closure call per code, DistanceBatch
// evaluates a whole block of contiguous codes per call, so inverted-list
// scans run at table-walk / memory bandwidth. Kernels own their scratch
// (lookup tables, rotation buffers) and rebuild it on BindQuery, so one
// kernel instance serves an unbounded stream of queries with zero
// steady-state allocations.
//
// Contract: BindQuery must be called before Distance or DistanceBatch. The
// bound query slice must stay unmodified until the next BindQuery (kernels
// that precompute tables copy what they need; Flat reads q during the scan).
// Batch and scalar paths agree within floating-point reassociation tolerance:
// the batch kernels use multi-lane accumulators, so sums may differ from the
// scalar Distancer in the last bits (documented bound: 1e-4 relative, see
// DESIGN.md §8); Flat is bit-identical by construction.
type BatchDistancer interface {
	// BindQuery prepares the kernel for a new query, reusing internal
	// buffers. It panics if len(q) != the quantizer's Dim.
	BindQuery(q []float32)
	// Distance evaluates one code against the bound query.
	Distance(code []byte) float32
	// DistanceBatch evaluates n contiguous codes (n * CodeSize bytes at the
	// front of codes), writing distances to out[:n].
	DistanceBatch(codes []byte, n int, out []float32)
}

// BatchCapable marks quantizers that provide a native batch kernel.
type BatchCapable interface {
	// NewBatchDistancer returns an unbound reusable kernel.
	NewBatchDistancer() BatchDistancer
}

// NewBatchDistancer returns a reusable batch kernel for qz. Quantizers
// without native batch support get a generic adapter over the scalar
// Distancer (correct, but it allocates a fresh closure per BindQuery).
func NewBatchDistancer(qz Quantizer) BatchDistancer {
	if bc, ok := qz.(BatchCapable); ok {
		return bc.NewBatchDistancer()
	}
	return &scalarBatch{qz: qz}
}

// scalarBatch adapts the scalar Distancer to the batch interface.
type scalarBatch struct {
	qz   Quantizer
	dist Distancer
}

func (s *scalarBatch) BindQuery(q []float32) { s.dist = s.qz.NewDistancer(q) }

func (s *scalarBatch) Distance(code []byte) float32 { return s.dist(code) }

func (s *scalarBatch) DistanceBatch(codes []byte, n int, out []float32) {
	cs := s.qz.CodeSize()
	for i := 0; i < n; i++ {
		out[i] = s.dist(codes[i*cs : (i+1)*cs])
	}
}

func checkBatchArgs(codes []byte, n, cs int, out []float32) {
	if len(codes) < n*cs {
		panic(fmt.Sprintf("quant: DistanceBatch codes length %d < %d codes x %d bytes", len(codes), n, cs))
	}
	if len(out) < n {
		panic(fmt.Sprintf("quant: DistanceBatch out length %d < n %d", len(out), n))
	}
}

func checkQueryDim(got, want int) {
	if got != want {
		panic(fmt.Sprintf("quant: BindQuery dim %d != %d", got, want))
	}
}

// le32 reads one little-endian float32 from the front of b.
func le32(b []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// ---------------------------------------------------------------------------
// Flat: blocked L2 directly over the little-endian float32 codes, skipping
// the per-vector Decode into a scratch buffer. Accumulation mirrors
// vec.L2Squared's four lanes, so results are bit-identical to the scalar
// path (which decodes and calls vec.L2Squared).

type flatBatch struct {
	dim int
	q   []float32
}

// NewBatchDistancer returns Flat's blocked-L2 kernel.
func (f *Flat) NewBatchDistancer() BatchDistancer {
	return &flatBatch{dim: f.dim}
}

func (b *flatBatch) BindQuery(q []float32) {
	checkQueryDim(len(q), b.dim)
	b.q = q
}

func (b *flatBatch) Distance(code []byte) float32 {
	var out [1]float32
	b.DistanceBatch(code, 1, out[:])
	return out[0]
}

func (b *flatBatch) DistanceBatch(codes []byte, n int, out []float32) {
	q := b.q
	cs := b.dim * 4
	checkBatchArgs(codes, n, cs, out)
	for i := 0; i < n; i++ {
		code := codes[i*cs : i*cs+cs : i*cs+cs]
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+4 <= len(q); d += 4 {
			d0 := q[d] - le32(code[d*4:])
			d1 := q[d+1] - le32(code[d*4+4:])
			d2 := q[d+2] - le32(code[d*4+8:])
			d3 := q[d+3] - le32(code[d*4+12:])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; d < len(q); d++ {
			dd := q[d] - le32(code[d*4:])
			s0 += dd * dd
		}
		out[i] = s0 + s1 + s2 + s3
	}
}

// ---------------------------------------------------------------------------
// SQ: two kernels, chosen by code width.
//
// SQ8 uses branch-free direct dequantization: BindQuery precomputes
// qm[d] = q[d] - min[d]; the scan evaluates (qm[d] - code*scale[d])^2, on
// amd64 via an AVX2 assembly kernel (four codes in flight, 8 dims per step)
// or, without AVX2, its bit-identical SSE2 twin; elsewhere, and for dims not
// divisible by 4, via four-lane Go. The per-(dimension, level)
// squared-difference table the scalar path uses was measured and rejected
// for the 8-bit batch kernel: at dim=128 it is a 128 KiB working set walked
// with 1 KiB strides (one cache line per dimension per code), which runs out
// of L1 and ends up slower than the scalar closure — see DESIGN.md §8.
//
// SQ4 keeps the table: at 16 levels it is one cache line per dimension
// (dim x 64 B = 8 KiB at dim=128), L1-resident across the whole scan. Rows
// are fixed-size [16]float32 arrays indexed by a masked nibble, which the
// compiler proves in-bounds, so the inner loop is pure gathers.

type sqBatch struct {
	sq  *SQ
	qm  []float32     // q - min, rebuilt per query (8-bit path)
	lut [][16]float32 // per-dim squared-diff rows (4-bit path only)
}

// NewBatchDistancer returns the SQ batch kernel for this code width.
func (s *SQ) NewBatchDistancer() BatchDistancer {
	s.mustTrained()
	b := &sqBatch{sq: s, qm: make([]float32, s.dim)}
	if s.bits == 4 {
		b.lut = make([][16]float32, s.dim)
	}
	return b
}

func (b *sqBatch) BindQuery(q []float32) {
	s := b.sq
	checkQueryDim(len(q), s.dim)
	for d := range b.qm {
		b.qm[d] = q[d] - s.min[d]
	}
	if s.bits == 4 {
		for d := range b.lut {
			qm, sc := b.qm[d], s.scale[d]
			row := &b.lut[d]
			for l := 0; l < 16; l++ {
				diff := qm - float32(l)*sc
				row[l] = diff * diff
			}
		}
	}
}

func (b *sqBatch) Distance(code []byte) float32 {
	var out [1]float32
	b.DistanceBatch(code, 1, out[:])
	return out[0]
}

func (b *sqBatch) DistanceBatch(codes []byte, n int, out []float32) {
	cs := b.sq.CodeSize()
	checkBatchArgs(codes, n, cs, out)
	if b.sq.bits == 8 {
		b.batch8(codes, n, cs, out)
	} else {
		b.batch4(codes, n, cs, out)
	}
}

func (b *sqBatch) batch8(codes []byte, n, cs int, out []float32) {
	qm, scale := b.qm, b.sq.scale
	dim := b.sq.dim
	if sq8UseAsm && dim%4 == 0 {
		sq8BatchAsm(codes, qm, scale, n, out)
		return
	}
	for i := 0; i < n; i++ {
		code := codes[i*cs : i*cs+cs : i*cs+cs]
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+4 <= dim; d += 4 {
			d0 := qm[d] - float32(code[d])*scale[d]
			d1 := qm[d+1] - float32(code[d+1])*scale[d+1]
			d2 := qm[d+2] - float32(code[d+2])*scale[d+2]
			d3 := qm[d+3] - float32(code[d+3])*scale[d+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; d < dim; d++ {
			dd := qm[d] - float32(code[d])*scale[d]
			s0 += dd * dd
		}
		out[i] = s0 + s1 + s2 + s3
	}
}

func (b *sqBatch) batch4(codes []byte, n, cs int, out []float32) {
	lut := b.lut
	for i := 0; i < n; i++ {
		code := codes[i*cs : i*cs+cs : i*cs+cs]
		var s0, s1, s2, s3 float32
		d, p := 0, 0
		for ; d+4 <= len(lut); d, p = d+4, p+2 {
			c0 := code[p]
			c1 := code[p+1]
			s0 += lut[d][c0&0x0f]
			s1 += lut[d+1][c0>>4]
			s2 += lut[d+2][c1&0x0f]
			s3 += lut[d+3][c1>>4]
		}
		for ; d < len(lut); d++ {
			var lvl byte
			if d%2 == 0 {
				lvl = code[d/2] & 0x0f
			} else {
				lvl = code[d/2] >> 4
			}
			s0 += lut[d][lvl]
		}
		out[i] = (s0 + s1) + (s2 + s3)
	}
}

// ---------------------------------------------------------------------------
// PQ: the per-query M x ksub ADC lookup table is precomputed on BindQuery as
// one [256]float32 row per subquantizer. Indexing a fixed-size [256] array
// with a byte needs no bounds check, so the scan inner loop compiles to pure
// table gathers; two codes are interleaved per iteration to keep enough
// independent float-add chains in flight to hide gather latency.

type pqBatch struct {
	pq     *PQ
	ksub   int            // actual codebook size (<= 256 when clamped)
	tables [][256]float32 // one gather row per subquantizer
}

// NewBatchDistancer returns the PQ ADC table-gather kernel.
func (p *PQ) NewBatchDistancer() BatchDistancer {
	p.mustTrained()
	return &pqBatch{pq: p, ksub: p.codebooks[0].Len(), tables: make([][256]float32, p.m)}
}

func (b *pqBatch) BindQuery(q []float32) {
	p := b.pq
	checkQueryDim(len(q), p.dim)
	for m := 0; m < p.m; m++ {
		sub := q[m*p.dsub : (m+1)*p.dsub]
		vec.L2SquaredBatch(sub, p.codebooks[m].Data(), b.ksub, b.tables[m][:])
	}
}

func (b *pqBatch) Distance(code []byte) float32 {
	var out [1]float32
	b.DistanceBatch(code, 1, out[:])
	return out[0]
}

func (b *pqBatch) DistanceBatch(codes []byte, n int, out []float32) {
	m := b.pq.m
	checkBatchArgs(codes, n, m, out)
	if pqUseAsm && m%4 == 0 {
		pqScanAsm(codes, b.tables, n, out)
		return
	}
	tabs := b.tables
	i := 0
	for ; i+2 <= n; i += 2 {
		// Re-slice both codes to len(tabs) so the compiler can prove every
		// index below in bounds from the single loop condition.
		codeA := codes[i*m:][:len(tabs):len(tabs)]
		codeB := codes[(i+1)*m:][:len(tabs):len(tabs)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float32
		j := 0
		for ; j+4 <= len(tabs); j += 4 {
			// Constant-length subslice: one bounds check covers all four
			// rows, and the byte indexes into [256]float32 need none.
			t := tabs[j : j+4 : j+4]
			a0 += t[0][codeA[j]]
			b0 += t[0][codeB[j]]
			a1 += t[1][codeA[j+1]]
			b1 += t[1][codeB[j+1]]
			a2 += t[2][codeA[j+2]]
			b2 += t[2][codeB[j+2]]
			a3 += t[3][codeA[j+3]]
			b3 += t[3][codeB[j+3]]
		}
		for ; j < len(tabs); j++ {
			a0 += tabs[j][codeA[j]]
			b0 += tabs[j][codeB[j]]
		}
		out[i] = (a0 + a1) + (a2 + a3)
		out[i+1] = (b0 + b1) + (b2 + b3)
	}
	if i < n {
		code := codes[i*m:][:len(tabs):len(tabs)]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= len(tabs); j += 4 {
			s0 += tabs[j][code[j]]
			s1 += tabs[j+1][code[j+1]]
			s2 += tabs[j+2][code[j+2]]
			s3 += tabs[j+3][code[j+3]]
		}
		for ; j < len(tabs); j++ {
			s0 += tabs[j][code[j]]
		}
		out[i] = (s0 + s1) + (s2 + s3)
	}
}

// ---------------------------------------------------------------------------
// OPQ: rotation is an isometry, so the kernel rotates the query once into a
// reusable buffer and delegates every scan to the PQ kernel.

type opqBatch struct {
	opq *OPQ
	pq  *pqBatch
	rq  []float32 // rotated query
}

// NewBatchDistancer returns the OPQ kernel (rotate once, then PQ gathers).
func (o *OPQ) NewBatchDistancer() BatchDistancer {
	return &opqBatch{
		opq: o,
		pq:  o.pq.NewBatchDistancer().(*pqBatch),
		rq:  make([]float32, o.pq.dim),
	}
}

func (b *opqBatch) BindQuery(q []float32) {
	checkQueryDim(len(q), b.opq.pq.dim)
	b.opq.rotate(q, b.rq)
	b.pq.BindQuery(b.rq)
}

func (b *opqBatch) Distance(code []byte) float32 { return b.pq.Distance(code) }

func (b *opqBatch) DistanceBatch(codes []byte, n int, out []float32) {
	b.pq.DistanceBatch(codes, n, out)
}
