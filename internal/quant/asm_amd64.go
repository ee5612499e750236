//go:build amd64

package quant

// sq8UseAsm and pqUseAsm gate the assembly scan kernels. The PQ kernel and
// the SQ8 fallback use SSE2 only, which is part of the amd64 baseline.
const (
	sq8UseAsm = true
	pqUseAsm  = true
)

// sq8UseAVX2 selects the AVX2 SQ8 kernel over the SSE2 one. It is decided
// once at init from CPUID/XGETBV; tests flip it to compare the two paths,
// which are bit-identical (DESIGN.md §8), so the choice is never visible in a
// score.
var sq8UseAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv0(); eax&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid and xgetbv0 (XCR0) are implemented in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// sq8BatchAsm evaluates n contiguous SQ8 codes of len(qm) bytes against the
// bound query, writing distances to out[:n]. Preconditions (enforced by the
// caller): len(qm) is a multiple of 4, len(codes) >= n*len(qm),
// len(scale) >= len(qm), len(out) >= n.
func sq8BatchAsm(codes []byte, qm, scale []float32, n int, out []float32) {
	if sq8UseAVX2 {
		sq8BatchAVX2(codes, qm, scale, n, out)
		return
	}
	cs := len(qm)
	for i := 0; i < n; i++ {
		out[i] = sq8DotAsm(codes[i*cs:i*cs+cs], qm, scale)
	}
}

// sq8BatchAVX2 is the AVX2 list-scan kernel: four codes in flight, one 8-lane
// accumulator per code, tails handled inside. Bit-identical to sq8DotAsm per
// code. Implemented in sq8_avx2_amd64.s.
//
//go:noescape
func sq8BatchAVX2(codes []byte, qm, scale []float32, n int, out []float32)

// pqScanAsm evaluates n contiguous ADC codes of len(tables) subquantizer
// bytes each against the per-query gather tables, writing distances to
// out[:n]. Preconditions (enforced by the caller): len(tables) > 0 and a
// multiple of 4, len(codes) >= n*len(tables), len(out) >= n. Codes are
// processed in pairs with eight scalar accumulator chains to hide ADDSS
// latency behind the L1 table gathers. Implemented in pq_amd64.s.
//
//go:noescape
func pqScanAsm(codes []byte, tables [][256]float32, n int, out []float32)

// sq8DotAsm computes sum_d (qm[d] - float32(code[d])*scale[d])^2 over
// d in [0, len(qm)). Preconditions (enforced by the caller): len(qm) is a
// multiple of 4, len(code) >= len(qm), len(scale) >= len(qm). Accumulation
// uses eight SIMD lanes, so results match the scalar path only within the
// documented reassociation tolerance. It is the SSE2 fallback on CPUs
// without AVX2 and the reference sq8BatchAVX2 must match bit for bit.
// Implemented in sq8_amd64.s.
//
//go:noescape
func sq8DotAsm(code []byte, qm, scale []float32) float32
