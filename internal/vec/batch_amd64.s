//go:build amd64

#include "textflag.h"

// func l2SquaredBatch(q, data []float32, n int, out []float32)
//
// SSE2-only (amd64 baseline) squared-L2 of q against n contiguous rows.
//
// Bit-identity with vec.L2Squared is the contract: a row's 4-lane
// accumulator holds exactly L2Squared's s0..s3 (lane j sums dims 4k+j), the
// dim%4 tail is added into lane 0 with scalar ops, and the reduce is
// ((s0+s1)+s2)+s3. The difference is taken as row-q where L2Squared takes
// q-row: IEEE subtraction is exactly antisymmetric, so the squares agree to
// the bit, and it saves a register copy per row per step. No FMA.
//
// Four rows are scored per pass so the four independent ADDPS chains hide
// each other's latency and q is loaded once per four rows; their sums are
// reduced together through a 4x4 transpose. The last n%4 rows take the
// single-row loop. All vector loads are MOVUPS (slice data is only 4-byte
// aligned) and none reads past dim floats of q or of a row.
TEXT ·l2SquaredBatch(SB), NOSPLIT, $0-80
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX      // dim
	MOVQ data_base+24(FP), DI // current row
	MOVQ n+48(FP), BX         // rows left
	MOVQ out_base+56(FP), DX  // current output

	MOVQ CX, R8
	SHLQ $2, R8  // row stride in bytes
	MOVQ CX, R9
	ANDQ $-4, R9 // dim rounded down to a multiple of 4

block4:
	CMPQ BX, $4
	JLT  single
	LEAQ (DI)(R8*1), R10  // row 1
	LEAQ (R10)(R8*1), R11 // row 2
	LEAQ (R11)(R8*1), R12 // row 3
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX // element index d
	CMPQ  AX, R9
	JGE   tail4

loop4:
	MOVUPS (SI)(AX*4), X4
	MOVUPS (DI)(AX*4), X5
	MOVUPS (R10)(AX*4), X6
	MOVUPS (R11)(AX*4), X7
	MOVUPS (R12)(AX*4), X8
	SUBPS  X4, X5
	SUBPS  X4, X6
	SUBPS  X4, X7
	SUBPS  X4, X8
	MULPS  X5, X5
	MULPS  X6, X6
	MULPS  X7, X7
	MULPS  X8, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $4, AX
	CMPQ   AX, R9
	JLT    loop4

tail4:
	CMPQ AX, CX
	JGE  reduce4

tail4loop:
	MOVSS (SI)(AX*4), X4
	MOVSS (DI)(AX*4), X5
	MOVSS (R10)(AX*4), X6
	MOVSS (R11)(AX*4), X7
	MOVSS (R12)(AX*4), X8
	SUBSS X4, X5
	SUBSS X4, X6
	SUBSS X4, X7
	SUBSS X4, X8
	MULSS X5, X5
	MULSS X6, X6
	MULSS X7, X7
	MULSS X8, X8
	ADDSS X5, X0 // lane 0 only; lanes 1..3 keep their sums
	ADDSS X6, X1
	ADDSS X7, X2
	ADDSS X8, X3
	INCQ  AX
	CMPQ  AX, CX
	JLT   tail4loop

reduce4:
	// Transpose rows a,b,c,d (X0..X3) into lane columns, then add the
	// columns in L2Squared's order: ((col0+col1)+col2)+col3.
	MOVAPS   X0, X4
	UNPCKLPS X1, X0 // a0 b0 a1 b1
	UNPCKHPS X1, X4 // a2 b2 a3 b3
	MOVAPS   X2, X5
	UNPCKLPS X3, X2 // c0 d0 c1 d1
	UNPCKHPS X3, X5 // c2 d2 c3 d3
	MOVAPS   X0, X1
	MOVLHPS  X2, X0 // col0 = a0 b0 c0 d0
	MOVHLPS  X1, X2 // col1 = a1 b1 c1 d1
	MOVAPS   X4, X3
	MOVLHPS  X5, X4 // col2 = a2 b2 c2 d2
	MOVHLPS  X3, X5 // col3 = a3 b3 c3 d3
	ADDPS    X2, X0
	ADDPS    X4, X0
	ADDPS    X5, X0
	MOVUPS   X0, (DX)

	LEAQ (R12)(R8*1), DI
	ADDQ $16, DX
	SUBQ $4, BX
	JMP  block4

single:
	CMPQ BX, $0
	JLE  done
	XORPS X0, X0
	XORQ  AX, AX
	CMPQ  AX, R9
	JGE   tail1

loop1:
	MOVUPS (SI)(AX*4), X4
	MOVUPS (DI)(AX*4), X5
	SUBPS  X4, X5
	MULPS  X5, X5
	ADDPS  X5, X0
	ADDQ   $4, AX
	CMPQ   AX, R9
	JLT    loop1

tail1:
	CMPQ AX, CX
	JGE  reduce1

tail1loop:
	MOVSS (SI)(AX*4), X4
	MOVSS (DI)(AX*4), X5
	SUBSS X4, X5
	MULSS X5, X5
	ADDSS X5, X0
	INCQ  AX
	CMPQ  AX, CX
	JLT   tail1loop

reduce1:
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1 // lane 1
	MOVAPS X0, X2
	SHUFPS $0xAA, X2, X2 // lane 2
	MOVAPS X0, X3
	SHUFPS $0xFF, X3, X3 // lane 3
	ADDSS  X1, X0
	ADDSS  X2, X0
	ADDSS  X3, X0
	MOVSS  X0, (DX)

	ADDQ R8, DI
	ADDQ $4, DX
	DECQ BX
	JMP  single

done:
	RET
