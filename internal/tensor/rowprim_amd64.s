//go:build !purego

#include "textflag.h"

// The AVX2 row primitives behind rowprim_amd64.go. Every lane is one output
// element going through the roundings of the portable loop in rowprim.go:
// VMULPD then VADDPD, never a fused multiply-add, and no sum is reassociated.
// Loads and stores are unaligned (operands are arbitrary sub-slices), tails
// shorter than a vector run the same instructions in their scalar form, and
// every routine ends in VZEROUPPER because the Go code around it uses legacy
// SSE encodings.

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports OSXSAVE and AVX, XCR0 says the OS
// saves XMM and YMM state, and CPUID.7.0:EBX reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  probed
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  probed
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM | YMM state
	CMPL AX, $6
	JNE  probed
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
probed:
	RET

// func axpyRowsAVX2(o, b []float64, offs []int, coefs []float64)
//
// For q = 0 … len(offs)-1 in order, o[j] += coefs[q]·b[offs[q]+j] for every
// j < len(o). Four rows at a time share one sweep over o,
// o[j] = (((o[j] + c0·b0[j]) + c1·b1[j]) + c2·b2[j]) + c3·b3[j], which gives
// each o[j] the same terms in the same order as four single sweeps; the last
// one to three rows are single sweeps. The caller has checked that every
// offs[q]+len(o) ≤ len(b) and len(coefs) ≥ len(offs).
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R12
	MOVQ b_base+24(FP), BX
	MOVQ offs_base+48(FP), DX
	MOVQ offs_len+56(FP), R13 // rows left
	MOVQ coefs_base+72(FP), AX

rows4:
	CMPQ         R13, $4
	JLT          rows1
	MOVQ         (DX), R8
	MOVQ         8(DX), R9
	MOVQ         16(DX), R10
	MOVQ         24(DX), R11
	LEAQ         (BX)(R8*8), R8
	LEAQ         (BX)(R9*8), R9
	LEAQ         (BX)(R10*8), R10
	LEAQ         (BX)(R11*8), R11
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	ADDQ         $32, DX
	ADDQ         $32, AX
	SUBQ         $4, R13
	MOVQ         R12, CX // elements left
	XORQ         SI, SI  // byte offset into the rows

fused8:
	CMPQ    CX, $8
	JLT     fused4
	VMOVUPD (DI)(SI*1), Y4
	VMOVUPD 32(DI)(SI*1), Y5
	VMULPD  (R8)(SI*1), Y0, Y6
	VMULPD  32(R8)(SI*1), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(SI*1), Y1, Y8
	VMULPD  32(R9)(SI*1), Y1, Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMULPD  (R10)(SI*1), Y2, Y6
	VMULPD  32(R10)(SI*1), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R11)(SI*1), Y3, Y8
	VMULPD  32(R11)(SI*1), Y3, Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y4, (DI)(SI*1)
	VMOVUPD Y5, 32(DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX
	JMP     fused8

fused4:
	CMPQ    CX, $4
	JLT     fused1
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  (R8)(SI*1), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(SI*1), Y1, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R10)(SI*1), Y2, Y8
	VADDPD  Y8, Y4, Y4
	VMULPD  (R11)(SI*1), Y3, Y9
	VADDPD  Y9, Y4, Y4
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX

fused1:
	TESTQ  CX, CX
	JZ     rows4
	VMOVSD (DI)(SI*1), X4
	VMULSD (R8)(SI*1), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(SI*1), X1, X7
	VADDSD X7, X4, X4
	VMULSD (R10)(SI*1), X2, X8
	VADDSD X8, X4, X4
	VMULSD (R11)(SI*1), X3, X9
	VADDSD X9, X4, X4
	VMOVSD X4, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    fused1

rows1:
	TESTQ        R13, R13
	JZ           rowsDone
	MOVQ         (DX), R8
	LEAQ         (BX)(R8*8), R8
	VBROADCASTSD (AX), Y0
	ADDQ         $8, DX
	ADDQ         $8, AX
	DECQ         R13
	MOVQ         R12, CX
	XORQ         SI, SI

single8:
	CMPQ    CX, $8
	JLT     single4
	VMOVUPD (DI)(SI*1), Y4
	VMOVUPD 32(DI)(SI*1), Y5
	VMULPD  (R8)(SI*1), Y0, Y6
	VMULPD  32(R8)(SI*1), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(SI*1)
	VMOVUPD Y5, 32(DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX
	JMP     single8

single4:
	CMPQ    CX, $4
	JLT     single1
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  (R8)(SI*1), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX

single1:
	TESTQ  CX, CX
	JZ     rows1
	VMOVSD (DI)(SI*1), X4
	VMULSD (R8)(SI*1), X0, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    single1

rowsDone:
	VZEROUPPER
	RET

// DOTSTEP adds one value of p to the four accumulators: bcol holds
// b0[p], b1[p], b2[p], b3[p] and lane j of Y0…Y3 is the running dot product
// of a row 0…3 with b row j.
#define DOTSTEP(off, bcol) \
	VBROADCASTSD off(AX)(SI*1), Y8; \
	VBROADCASTSD off(BX)(SI*1), Y9; \
	VBROADCASTSD off(CX)(SI*1), Y10; \
	VBROADCASTSD off(DX)(SI*1), Y11; \
	VMULPD       bcol, Y8, Y8; \
	VMULPD       bcol, Y9, Y9; \
	VMULPD       bcol, Y10, Y10; \
	VMULPD       bcol, Y11, Y11; \
	VADDPD       Y8, Y0, Y0; \
	VADDPD       Y9, Y1, Y1; \
	VADDPD       Y10, Y2, Y2; \
	VADDPD       Y11, Y3, Y3

// BCOLS2 transposes two values of p, at byte offset off, of the four b rows
// into lo = (b0[p], b1[p], b2[p], b3[p]) and hi = the same at p+1.
#define BCOLS2(off, lo, hi) \
	VMOVUPD     off(R8)(SI*1), X12; \
	VINSERTF128 $1, off(R10)(SI*1), Y12, Y12; \
	VMOVUPD     off(R9)(SI*1), X13; \
	VINSERTF128 $1, off(R11)(SI*1), Y13, Y13; \
	VUNPCKLPD   Y13, Y12, lo; \
	VUNPCKHPD   Y13, Y12, hi

// func dotTileAVX2(o []float64, ldo int, a, b []float64, k int)
//
// o[r·ldo + j] = Σ_p a[r·k + p]·b[j·k + p] for r, j < 4: four rows of a
// against four rows of b (all of length k), each of the sixteen sums one
// lane's own accumulator over ascending p, starting from +0.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-88
	MOVQ   k+80(FP), DI
	MOVQ   DI, R12
	SHLQ   $3, R12 // row length in bytes
	MOVQ   a_base+32(FP), AX
	LEAQ   (AX)(R12*1), BX
	LEAQ   (BX)(R12*1), CX
	LEAQ   (CX)(R12*1), DX
	MOVQ   b_base+56(FP), R8
	LEAQ   (R8)(R12*1), R9
	LEAQ   (R9)(R12*1), R10
	LEAQ   (R10)(R12*1), R11
	XORQ   SI, SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dot4:
	CMPQ DI, $4
	JLT  dot1
	BCOLS2(0, Y4, Y5)
	BCOLS2(16, Y6, Y7)
	DOTSTEP(0, Y4)
	DOTSTEP(8, Y5)
	DOTSTEP(16, Y6)
	DOTSTEP(24, Y7)
	ADDQ $32, SI
	SUBQ $4, DI
	JMP  dot4

dot1:
	TESTQ       DI, DI
	JZ          dotStore
	VMOVSD      (R8)(SI*1), X12
	VMOVHPD     (R9)(SI*1), X12, X12
	VMOVSD      (R10)(SI*1), X13
	VMOVHPD     (R11)(SI*1), X13, X13
	VINSERTF128 $1, X13, Y12, Y4
	DOTSTEP(0, Y4)
	ADDQ        $8, SI
	DECQ        DI
	JMP         dot1

dotStore:
	MOVQ    o_base+0(FP), DI
	MOVQ    ldo+24(FP), R12
	SHLQ    $3, R12
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R12*1)
	LEAQ    (DI)(R12*2), DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (DI)(R12*1)
	VZEROUPPER
	RET
