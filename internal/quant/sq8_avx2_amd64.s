//go:build amd64

#include "textflag.h"

// func sq8BatchAVX2(codes []byte, qm, scale []float32, n int, out []float32)
//
// AVX2 SQ8 list scan: out[i] = sum_d (qm[d] - float32(code_i[d])*scale[d])^2
// for n contiguous codes of len(qm) bytes each. Caller guarantees
// len(qm) % 4 == 0, len(codes) >= n*len(qm), len(scale) >= len(qm),
// len(out) >= n, and that the CPU and OS support AVX2.
//
// Bit-identity with sq8DotAsm is the contract. One code owns one 8-lane
// accumulator whose low half is sq8DotAsm's X5 (dims 8k+0..3) and whose high
// half is its X4 (dims 8k+4..7); the dim%8 == 4 step is added to the low half
// only; the reduce is sq8DotAsm's: low+high, then (l0+l2)+(l1+l3). Same
// operations in the same order on every lane, no FMA.
//
// Four codes are in flight per pass (qm and scale are loaded once for all
// four, and four independent VADDPS chains cover the add latency); their four
// sums are reduced together through a 4x4 transpose. The last n%4 codes take
// the single-code loop. VPMOVZXBD reads exactly 8 (ymm) or 4 (xmm) code
// bytes, so no load touches memory outside the slices passed in.
TEXT ·sq8BatchAVX2(SB), NOSPLIT, $0-104
	MOVQ codes_base+0(FP), SI // current code
	MOVQ qm_base+24(FP), DI
	MOVQ qm_len+32(FP), CX    // dim == code size
	MOVQ scale_base+48(FP), DX
	MOVQ n+72(FP), BX         // codes left
	MOVQ out_base+80(FP), R8  // current output

	MOVQ CX, R9
	ANDQ $-8, R9 // dim rounded down to a multiple of 8

block4:
	CMPQ BX, $4
	JLT  single
	LEAQ (SI)(CX*1), R10  // code 1
	LEAQ (R10)(CX*1), R11 // code 2
	LEAQ (R11)(CX*1), R12 // code 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX // element index d
	CMPQ   AX, R9
	JGE    split4

loop4:
	VMOVUPS   (DX)(AX*4), Y4 // scale[d..d+7]
	VMOVUPS   (DI)(AX*4), Y5 // qm[d..d+7]
	VPMOVZXBD (SI)(AX*1), Y6 // eight code bytes -> eight uint32
	VPMOVZXBD (R10)(AX*1), Y7
	VPMOVZXBD (R11)(AX*1), Y8
	VPMOVZXBD (R12)(AX*1), Y9
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	VCVTDQ2PS Y8, Y8
	VCVTDQ2PS Y9, Y9
	VMULPS    Y4, Y6, Y6
	VMULPS    Y4, Y7, Y7
	VMULPS    Y4, Y8, Y8
	VMULPS    Y4, Y9, Y9
	VSUBPS    Y6, Y5, Y6 // qm - code*scale
	VSUBPS    Y7, Y5, Y7
	VSUBPS    Y8, Y5, Y8
	VSUBPS    Y9, Y5, Y9
	VMULPS    Y6, Y6, Y6
	VMULPS    Y7, Y7, Y7
	VMULPS    Y8, Y8, Y8
	VMULPS    Y9, Y9, Y9
	VADDPS    Y6, Y0, Y0
	VADDPS    Y7, Y1, Y1
	VADDPS    Y8, Y2, Y2
	VADDPS    Y9, Y3, Y3
	ADDQ      $8, AX
	CMPQ      AX, R9
	JLT       loop4

split4:
	// High halves (sq8DotAsm's X4) out to X10..X13; X0..X3 keep the low
	// halves (its X5).
	VEXTRACTF128 $1, Y0, X10
	VEXTRACTF128 $1, Y1, X11
	VEXTRACTF128 $1, Y2, X12
	VEXTRACTF128 $1, Y3, X13
	CMPQ         AX, CX
	JGE          reduce4

	// One 4-wide step for dim % 8 == 4, into the low halves.
	VMOVUPS   (DX)(AX*4), X4
	VMOVUPS   (DI)(AX*4), X5
	VPMOVZXBD (SI)(AX*1), X6 // four code bytes
	VPMOVZXBD (R10)(AX*1), X7
	VPMOVZXBD (R11)(AX*1), X8
	VPMOVZXBD (R12)(AX*1), X9
	VCVTDQ2PS X6, X6
	VCVTDQ2PS X7, X7
	VCVTDQ2PS X8, X8
	VCVTDQ2PS X9, X9
	VMULPS    X4, X6, X6
	VMULPS    X4, X7, X7
	VMULPS    X4, X8, X8
	VMULPS    X4, X9, X9
	VSUBPS    X6, X5, X6
	VSUBPS    X7, X5, X7
	VSUBPS    X8, X5, X8
	VSUBPS    X9, X5, X9
	VMULPS    X6, X6, X6
	VMULPS    X7, X7, X7
	VMULPS    X8, X8, X8
	VMULPS    X9, X9, X9
	VADDPS    X6, X0, X0
	VADDPS    X7, X1, X1
	VADDPS    X8, X2, X2
	VADDPS    X9, X3, X3

reduce4:
	VADDPS X10, X0, X0 // low + high, per code (rows a, b, c, d)
	VADDPS X11, X1, X1
	VADDPS X12, X2, X2
	VADDPS X13, X3, X3

	// Transpose the four rows into lane columns, then (col0+col2)+(col1+col3).
	VUNPCKLPS X1, X0, X4 // a0 b0 a1 b1
	VUNPCKHPS X1, X0, X5 // a2 b2 a3 b3
	VUNPCKLPS X3, X2, X6 // c0 d0 c1 d1
	VUNPCKHPS X3, X2, X7 // c2 d2 c3 d3
	VMOVLHPS  X6, X4, X0 // col0 = a0 b0 c0 d0
	VMOVHLPS  X4, X6, X1 // col1 = a1 b1 c1 d1
	VMOVLHPS  X7, X5, X2 // col2 = a2 b2 c2 d2
	VMOVHLPS  X5, X7, X3 // col3 = a3 b3 c3 d3
	VADDPS    X2, X0, X0
	VADDPS    X3, X1, X1
	VADDPS    X1, X0, X0
	VMOVUPS   X0, (R8)

	LEAQ (R12)(CX*1), SI
	ADDQ $16, R8
	SUBQ $4, BX
	JMP  block4

single:
	CMPQ BX, $0
	JLE  done
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R9
	JGE    split1

loop1:
	VPMOVZXBD (SI)(AX*1), Y6
	VCVTDQ2PS Y6, Y6
	VMULPS    (DX)(AX*4), Y6, Y6
	VMOVUPS   (DI)(AX*4), Y5
	VSUBPS    Y6, Y5, Y6
	VMULPS    Y6, Y6, Y6
	VADDPS    Y6, Y0, Y0
	ADDQ      $8, AX
	CMPQ      AX, R9
	JLT       loop1

split1:
	VEXTRACTF128 $1, Y0, X10
	CMPQ         AX, CX
	JGE          reduce1
	VPMOVZXBD    (SI)(AX*1), X6
	VCVTDQ2PS    X6, X6
	VMULPS       (DX)(AX*4), X6, X6
	VMOVUPS      (DI)(AX*4), X5
	VSUBPS       X6, X5, X6
	VMULPS       X6, X6, X6
	VADDPS       X6, X0, X0

reduce1:
	VADDPS  X10, X0, X0
	VSHUFPS $0xEE, X0, X0, X1 // lanes 2, 3 down
	VADDPS  X0, X1, X1        // l0+l2, l1+l3
	VSHUFPS $0x55, X1, X1, X2 // l1+l3 down
	VADDSS  X2, X1, X1
	VMOVSS  X1, (R8)

	ADDQ CX, SI
	ADDQ $4, R8
	DECQ BX
	JMP  single

done:
	VZEROUPPER
	RET
