//go:build !purego

#include "textflag.h"

// The AVX2 row primitives behind rowprim_amd64.go. Every lane is one output
// element going through the roundings of the portable loop in rowprim.go
// (compactRowAVX2, which only moves bits, aside):
// VMULPD then VADDPD, never a fused multiply-add, and no sum is reassociated
// but sumSquaresAVX2's, which sums in the sixteen chains sumSquaresGeneric
// spells out. The one exception to "never FMA" is expShiftAVX2, whose lanes
// go through the roundings of math.Exp's own amd64 body, fused multiply-adds
// included, and which runs only on CPUs where math.Exp takes that FMA
// branch. Loads and stores are
// unaligned (operands are arbitrary sub-slices), tails shorter than a vector
// run the same instructions in their scalar form (expShiftAVX2's, as a masked
// group of four; compactRowAVX2's in integer registers), and every routine
// ends in VZEROUPPER because the Go code around it uses legacy SSE
// encodings. Inside a routine every instruction on a vector register is
// VEX-encoded: a legacy-SSE one next to dirty upper YMM halves costs a
// state transition or a false dependency on every execution.

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

// The left-pack tables of compactRowAVX2, indexed by the keep mask m of a
// group of four (bit l set: lane l kept). PERM(m, …) lists the source lanes
// of the four output lanes, kept lanes first in ascending order, then the
// dropped ones; each 64-bit lane l is VPERMPS's pair of 32-bit indices
// 2l, 2l+1, so one table moves both the coefficients and their offsets.
// compactcount holds the number of kept lanes, a byte per mask: cpuHasAVX2
// does not probe for POPCNT.
#define PERM(m, l0, l1, l2, l3) DATA compactperm<>+(m*32)(SB)/8, $(((2*l0+1)<<32)+2*l0); DATA compactperm<>+(m*32+8)(SB)/8, $(((2*l1+1)<<32)+2*l1); DATA compactperm<>+(m*32+16)(SB)/8, $(((2*l2+1)<<32)+2*l2); DATA compactperm<>+(m*32+24)(SB)/8, $(((2*l3+1)<<32)+2*l3)

PERM(0, 0, 1, 2, 3)
PERM(1, 0, 1, 2, 3)
PERM(2, 1, 0, 2, 3)
PERM(3, 0, 1, 2, 3)
PERM(4, 2, 0, 1, 3)
PERM(5, 0, 2, 1, 3)
PERM(6, 1, 2, 0, 3)
PERM(7, 0, 1, 2, 3)
PERM(8, 3, 0, 1, 2)
PERM(9, 0, 3, 1, 2)
PERM(10, 1, 3, 0, 2)
PERM(11, 0, 1, 3, 2)
PERM(12, 2, 3, 0, 1)
PERM(13, 0, 2, 3, 1)
PERM(14, 1, 2, 3, 0)
PERM(15, 0, 1, 2, 3)
GLOBL compactperm<>(SB), RODATA, $512

DATA compactcount<>+0(SB)/8, $0x0302020102010100 // masks 0–7
DATA compactcount<>+8(SB)/8, $0x0403030203020201 // masks 8–15
GLOBL compactcount<>(SB), RODATA, $16

// func compactRowAVX2(coef []float64, off []int, src []float64, off0, step int) int
//
// Left-packs the entries of src whose bits are not ±0 into coef, each with
// its offset off0 + p·step into off, and returns how many it kept. Four
// lanes at a time: VCMPPD's not-equal, unordered predicate is false for
// exactly ±0 (NaN is unordered, so kept; MXCSR's DAZ is clear, so
// subnormals compare non-zero), VMOVMSKPD makes the keep mask, and VPERMPS
// moves the kept coefficients and their offsets to the group's front, both
// stored whole at the next free slot — the dropped lanes land past it and
// are overwritten or never read. The last one to three entries take the
// portable loop's branch-free form in integer registers. Every instruction
// that touches a vector register is VEX-encoded: one legacy-SSE form here
// (a MOVQ into an X register) made the routine slower than the portable
// loop. The caller has checked that coef and off are at least as long as
// src.
TEXT ·compactRowAVX2(SB), NOSPLIT, $0-96
	MOVQ coef_base+0(FP), DI
	MOVQ off_base+24(FP), DX
	MOVQ src_base+48(FP), SI
	MOVQ src_len+56(FP), CX
	MOVQ off0+72(FP), R8
	MOVQ step+80(FP), R9
	XORQ BX, BX // entries kept
	CMPQ CX, $4
	JLT  packTail

	// Y14: the offsets of the group's four lanes, off0 + {0, 1, 2, 3}·step;
	// Y13: 4·step in every lane.
	LEAQ         (R8)(R9*1), AX
	LEAQ         (R8)(R9*2), R10
	LEAQ         (R10)(R9*1), R11
	VMOVQ        R8, X14
	VPINSRQ      $1, AX, X14, X14
	VMOVQ        R10, X12
	VPINSRQ      $1, R11, X12, X12
	VINSERTI128  $1, X12, Y14, Y14
	MOVQ         R9, AX
	SHLQ         $2, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	VXORPD       Y15, Y15, Y15
	LEAQ         compactperm<>(SB), R10
	LEAQ         compactcount<>(SB), R11

pack4:
	VMOVUPD   (SI), Y0
	VCMPPD    $4, Y15, Y0, Y1 // c != 0: NEQ_UQ
	VMOVMSKPD Y1, AX
	MOVQ      AX, R12
	SHLQ      $5, R12
	VMOVDQU   (R10)(R12*1), Y2
	VPERMPS   Y0, Y2, Y3
	VPERMPS   Y14, Y2, Y4
	VMOVUPD   Y3, (DI)(BX*8)
	VMOVDQU   Y4, (DX)(BX*8)
	MOVBQZX   (R11)(AX*1), AX
	ADDQ      AX, BX
	VPADDQ    Y13, Y14, Y14
	ADDQ      $32, SI
	SUBQ      $4, CX
	CMPQ      CX, $4
	JGE       pack4
	VMOVQ     X14, R8 // the next entry's offset

packTail:
	TESTQ CX, CX
	JZ    packDone
	MOVQ  (SI), AX
	MOVQ  AX, (DI)(BX*8)
	MOVQ  R8, (DX)(BX*8)
	SHLQ  $1, AX // zero for exactly ±0
	NEGQ  AX     // carry set for every other pattern
	ADCQ  $0, BX
	ADDQ  R9, R8
	ADDQ  $8, SI
	DECQ  CX
	JMP   packTail

packDone:
	MOVQ BX, ret+88(FP)
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

// SQSTEP adds one value of i to the four accumulators: bcol holds
// b0[i], b1[i], b2[i], b3[i] and lane j of Y0…Y3 is the running squared
// distance of a row 0…3 to b row j: (a − b), rounded, squared, rounded,
// added, rounded.
#define SQSTEP(off, bcol) \
	VBROADCASTSD off(AX)(SI*1), Y8; \
	VBROADCASTSD off(BX)(SI*1), Y9; \
	VBROADCASTSD off(CX)(SI*1), Y10; \
	VBROADCASTSD off(DX)(SI*1), Y11; \
	VSUBPD       bcol, Y8, Y8; \
	VSUBPD       bcol, Y9, Y9; \
	VSUBPD       bcol, Y10, Y10; \
	VSUBPD       bcol, Y11, Y11; \
	VMULPD       Y8, Y8, Y8; \
	VMULPD       Y9, Y9, Y9; \
	VMULPD       Y10, Y10, Y10; \
	VMULPD       Y11, Y11, Y11; \
	VADDPD       Y8, Y0, Y0; \
	VADDPD       Y9, Y1, Y1; \
	VADDPD       Y10, Y2, Y2; \
	VADDPD       Y11, Y3, Y3

// func sqDistTileAVX2(o *[16]float64, a, b *[4][]float64)
//
// o[r·4 + j] = Σ_i (a[r][i] − b[j][i])² for r, j < 4: the dotTileAVX2 loop
// with a subtraction before the product, each of the sixteen sums one
// lane's own accumulator over ascending i, starting from +0. The caller has
// checked that all eight rows have the length of a[0].
TEXT ·sqDistTileAVX2(SB), NOSPLIT, $0-24
	MOVQ   a+8(FP), R13
	MOVQ   (R13), AX
	MOVQ   8(R13), DI // row length
	MOVQ   24(R13), BX
	MOVQ   48(R13), CX
	MOVQ   72(R13), DX
	MOVQ   b+16(FP), R13
	MOVQ   (R13), R8
	MOVQ   24(R13), R9
	MOVQ   48(R13), R10
	MOVQ   72(R13), R11
	XORQ   SI, SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

sq4:
	CMPQ DI, $4
	JLT  sq1
	BCOLS2(0, Y4, Y5)
	BCOLS2(16, Y6, Y7)
	SQSTEP(0, Y4)
	SQSTEP(8, Y5)
	SQSTEP(16, Y6)
	SQSTEP(24, Y7)
	ADDQ $32, SI
	SUBQ $4, DI
	JMP  sq4

sq1:
	TESTQ       DI, DI
	JZ          sqStore
	VMOVSD      (R8)(SI*1), X12
	VMOVHPD     (R9)(SI*1), X12, X12
	VMOVSD      (R10)(SI*1), X13
	VMOVHPD     (R11)(SI*1), X13, X13
	VINSERTF128 $1, X13, Y12, Y4
	SQSTEP(0, Y4)
	ADDQ        $8, SI
	DECQ        DI
	JMP         sq1

sqStore:
	MOVQ    o+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func biasRowsAVX2(y, bias []float64, relu bool)
//
// y[i·n + j] += bias[j] for every row of y (n = len(bias); the caller has
// checked that len(y) is a multiple of n), then, when relu is set, every
// sum that is <= 0 becomes +0: VCMPPD's not-less-or-equal, unordered
// predicate keeps positives and NaN of either sign, and the AND with its
// mask turns negatives, −Inf and both zeros into all-zero bits.
TEXT ·biasRowsAVX2(SB), NOSPLIT, $0-49
	MOVQ    y_base+0(FP), DI
	MOVQ    y_len+8(FP), R12 // elements left in y
	MOVQ    bias_base+24(FP), BX
	MOVQ    bias_len+32(FP), R13
	MOVBQZX relu+48(FP), AX
	VXORPD  Y15, Y15, Y15
	TESTQ   R13, R13
	JZ      biasDone

biasRow:
	CMPQ R12, R13
	JLT  biasDone
	MOVQ R13, CX  // elements left in the row
	XORQ SI, SI   // byte offset into the row
	TESTQ AX, AX
	JNZ  relu4

plain4:
	CMPQ    CX, $4
	JLT     plain1
	VMOVUPD (DI)(SI*1), Y0
	VADDPD  (BX)(SI*1), Y0, Y0
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     plain4

plain1:
	TESTQ  CX, CX
	JZ     biasNext
	VMOVSD (DI)(SI*1), X0
	VADDSD (BX)(SI*1), X0, X0
	VMOVSD X0, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    plain1

relu4:
	CMPQ    CX, $4
	JLT     relu1
	VMOVUPD (DI)(SI*1), Y0
	VADDPD  (BX)(SI*1), Y0, Y0
	VCMPPD  $0x16, Y15, Y0, Y1 // !(y <= 0): NLE_UQ
	VANDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     relu4

relu1:
	TESTQ  CX, CX
	JZ     biasNext
	VMOVSD (DI)(SI*1), X0
	VADDSD (BX)(SI*1), X0, X0
	VCMPSD $0x16, X15, X0, X1
	VANDPD X1, X0, X0
	VMOVSD X0, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    relu1

biasNext:
	ADDQ SI, DI
	SUBQ R13, R12
	JMP  biasRow

biasDone:
	VZEROUPPER
	RET

// func reluMaskAVX2(dst, g, y []float64)
//
// dst[i] = g[i] where y[i] > 0 and +0 elsewhere: VCMPPD's greater-than,
// ordered predicate is false for ±0, negatives and NaN, and the AND with
// its mask leaves g's bits or all-zero bits. The caller has checked that g
// and y are at least as long as dst.
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   g_base+24(FP), BX
	MOVQ   y_base+48(FP), DX
	XORQ   SI, SI
	VXORPD Y15, Y15, Y15

mask8:
	CMPQ    CX, $8
	JLT     mask4
	VMOVUPD (DX)(SI*1), Y0
	VMOVUPD 32(DX)(SI*1), Y1
	VCMPPD  $0x1E, Y15, Y0, Y0 // y > 0: GT_OQ
	VCMPPD  $0x1E, Y15, Y1, Y1
	VANDPD  (BX)(SI*1), Y0, Y0
	VANDPD  32(BX)(SI*1), Y1, Y1
	VMOVUPD Y0, (DI)(SI*1)
	VMOVUPD Y1, 32(DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX
	JMP     mask8

mask4:
	CMPQ    CX, $4
	JLT     mask1
	VMOVUPD (DX)(SI*1), Y0
	VCMPPD  $0x1E, Y15, Y0, Y0
	VANDPD  (BX)(SI*1), Y0, Y0
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX

mask1:
	TESTQ  CX, CX
	JZ     maskDone
	VMOVSD (DX)(SI*1), X0
	VCMPSD $0x1E, X15, X0, X0
	VMOVSD (BX)(SI*1), X1
	VANDPD X1, X0, X0
	VMOVSD X0, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    mask1

maskDone:
	VZEROUPPER
	RET

// func cpuHasFMA() bool
//
// CPUID.1:ECX bit 12. math.Exp takes its fused multiply-add branch where the
// CPU reports AVX and FMA and the OS saves YMM state; with cpuHasAVX2 this
// probe says the same.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// The constants of math.Exp's amd64 body ($GOROOT/src/math/exp_amd64.s), as
// the same decimal literals, each four times over for a 256-bit operand; then
// the bounds of the lane classes and the tail's lane mask.
#define EXPCONST(off, v) DATA expdata<>+(off)(SB)/8, v; DATA expdata<>+(off+8)(SB)/8, v; DATA expdata<>+(off+16)(SB)/8, v; DATA expdata<>+(off+24)(SB)/8, v

EXPCONST(0, $1.4426950408889634073599246810018920)                  // LOG2E
EXPCONST(32, $0.69314718055966295651160180568695068359375)          // LN2U
EXPCONST(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5)
EXPCONST(160, $1.9841269841269841270e-4)
EXPCONST(192, $1.3888888888888888889e-3)
EXPCONST(224, $8.3333333333333333333e-3)
EXPCONST(256, $4.1666666666666666667e-2)
EXPCONST(288, $1.6666666666666666667e-1)
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
EXPCONST(416, $0x3FF)  // the exponent bias
EXPCONST(448, $-700.0) // the vector path's bounds
EXPCONST(480, $700.0)
EXPCONST(512, $-750.0) // below it math.Exp returns +0
EXPCONST(544, $-1)     // lane mask: lanes j < r of the last r elements
EXPCONST(576, $0)
GLOBL expdata<>(SB), RODATA, $608

// func expShiftAVX2(dst, src []float64, shift float64) int
//
// dst[i] = math.Exp(src[i] − shift), four elements at a time, from the start
// of dst until a group holds a lane the vector path does not cover; it
// returns how many elements it wrote (len(dst) when it covered them all).
// Each lane repeats the instructions math.Exp runs on its FMA branch (the
// avxfma label of exp_amd64.s) in their packed form: the same constants,
// the same fused and unfused roundings, the same conversions under the same
// MXCSR rounding mode. That branch takes x in [−700, 700] straight through
// to the scaling by 2^e with no overflow or denormal detour, and returns +0
// for every x < −750 (−Inf included), so a group whose lanes are all in
// one of those two classes is computed here, the second class as +0; a
// group with any other lane (NaN, x > 700, x in [−750, −700)) is left to
// the caller's math.Exp. The last one to three elements are a four-lane
// group under a mask (VMASKMOVPD), whose idle lanes are not classified. The
// caller has checked that len(src) ≥ len(dst); dst and src are the same
// slice or do not overlap.
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD shift+48(FP), Y15
	VMOVUPD      expdata<>+448(SB), Y14
	VMOVUPD      expdata<>+480(SB), Y13
	VMOVUPD      expdata<>+512(SB), Y12
	VXORPD       Y10, Y10, Y10 // idle lanes: none but in the tail
	XORQ         AX, AX        // elements written

exp4:
	MOVQ    CX, DX
	SUBQ    AX, DX // elements left
	CMPQ    DX, $4
	JLT     expTail
	VMOVUPD (SI)(AX*8), Y0

expGroup:
	VSUBPD    Y15, Y0, Y0        // x = src − shift
	VCMPPD    $0x1D, Y14, Y0, Y1 // x ≥ −700: GE_OQ
	VCMPPD    $0x12, Y13, Y0, Y2 // x ≤ 700: LE_OQ
	VANDPD    Y2, Y1, Y1
	VCMPPD    $0x11, Y12, Y0, Y9 // x < −750: LT_OQ
	VORPD     Y9, Y1, Y1
	VORPD     Y10, Y1, Y1
	VMOVMSKPD Y1, R8
	CMPQ      R8, $15
	JNE       expDone

	// x·LOG2E rounded to the nearest integer e, and x − e·ln 2 in two
	// fused steps; then the Taylor series of exp(r/16), squared four times.
	VMULPD       expdata<>+0(SB), Y0, Y1
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD expdata<>+32(SB), Y1, Y0
	VFNMADD231PD expdata<>+64(SB), Y1, Y0
	VMULPD       expdata<>+96(SB), Y0, Y0
	VMOVUPD      expdata<>+128(SB), Y1
	VFMADD213PD  expdata<>+160(SB), Y0, Y1
	VFMADD213PD  expdata<>+192(SB), Y0, Y1
	VFMADD213PD  expdata<>+224(SB), Y0, Y1
	VFMADD213PD  expdata<>+256(SB), Y0, Y1
	VFMADD213PD  expdata<>+288(SB), Y0, Y1
	VFMADD213PD  expdata<>+320(SB), Y0, Y1
	VFMADD213PD  expdata<>+352(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VFMADD213PD  expdata<>+352(SB), Y1, Y0

	// Times 2^e, built in the exponent field; then +0 where x < −750.
	VPMOVSXDQ X3, Y1
	VPADDQ    expdata<>+416(SB), Y1, Y1
	VPSLLQ    $52, Y1, Y1
	VMULPD    Y1, Y0, Y0
	VANDNPD   Y0, Y9, Y0

	CMPQ    DX, $4
	JLT     expTailStore
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     exp4

expTail:
	TESTQ      DX, DX
	JZ         expDone
	MOVQ       $4, R8
	SUBQ       DX, R8
	LEAQ       expdata<>+544(SB), R9
	VMOVUPD    (R9)(R8*8), Y11       // lanes j < DX
	VXORPD     Y2, Y2, Y2
	VPCMPEQQ   Y2, Y11, Y10          // the idle lanes
	VMASKMOVPD (SI)(AX*8), Y11, Y0
	JMP        expGroup

expTailStore:
	VMASKMOVPD Y0, Y11, (DI)(AX*8)
	MOVQ       CX, AX

expDone:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func sgdStepAVX2(v, g, vel []float64, lr, mom, wd float64)
//
// One SGD step over v, four elements per instruction. With vel non-empty,
// each lane runs the momentum form t = wd·v; grad = g + t;
// vel = mom·vel + grad; v = v − lr·vel, and with vel empty the plain form
// t = wd·v; grad = g + t; v = v − lr·grad: separate VMULPD, VADDPD and
// VSUBPD, each rounded, in that order. Where a lane may meet two NaNs, the
// first source operand is the one the scalar loop of SGD.Step puts first
// (wd, t, mom, grad, lr or grad, v), so the NaN kept is that loop's too. The
// caller has checked that g, and vel when non-empty, are as long as v.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-96
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	MOVQ         g_base+24(FP), BX
	MOVQ         vel_base+48(FP), DX
	MOVQ         vel_len+56(FP), R8
	VBROADCASTSD lr+72(FP), Y0
	VBROADCASTSD mom+80(FP), Y1
	VBROADCASTSD wd+88(FP), Y2
	XORQ         SI, SI
	TESTQ        R8, R8
	JZ           plain8

mom8:
	CMPQ    CX, $8
	JLT     mom4
	VMOVUPD (DI)(SI*1), Y4
	VMOVUPD 32(DI)(SI*1), Y5
	VMULPD  Y4, Y2, Y6            // t = wd·v
	VMULPD  Y5, Y2, Y7
	VADDPD  (BX)(SI*1), Y6, Y6    // grad = t + g
	VADDPD  32(BX)(SI*1), Y7, Y7
	VMULPD  (DX)(SI*1), Y1, Y8    // mom·vel
	VMULPD  32(DX)(SI*1), Y1, Y9
	VADDPD  Y8, Y6, Y8            // vel = grad + mom·vel
	VADDPD  Y9, Y7, Y9
	VMOVUPD Y8, (DX)(SI*1)
	VMOVUPD Y9, 32(DX)(SI*1)
	VMULPD  Y8, Y0, Y8            // lr·vel
	VMULPD  Y9, Y0, Y9
	VSUBPD  Y8, Y4, Y4            // v − lr·vel
	VSUBPD  Y9, Y5, Y5
	VMOVUPD Y4, (DI)(SI*1)
	VMOVUPD Y5, 32(DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX
	JMP     mom8

mom4:
	CMPQ    CX, $4
	JLT     mom1
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  Y4, Y2, Y6
	VADDPD  (BX)(SI*1), Y6, Y6
	VMULPD  (DX)(SI*1), Y1, Y8
	VADDPD  Y8, Y6, Y8
	VMOVUPD Y8, (DX)(SI*1)
	VMULPD  Y8, Y0, Y8
	VSUBPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX

mom1:
	TESTQ  CX, CX
	JZ     stepDone
	VMOVSD (DI)(SI*1), X4
	VMULSD X4, X2, X6
	VADDSD (BX)(SI*1), X6, X6
	VMULSD (DX)(SI*1), X1, X8
	VADDSD X8, X6, X8
	VMOVSD X8, (DX)(SI*1)
	VMULSD X8, X0, X8
	VSUBSD X8, X4, X4
	VMOVSD X4, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    mom1

plain8:
	CMPQ    CX, $8
	JLT     plain4
	VMOVUPD (DI)(SI*1), Y4
	VMOVUPD 32(DI)(SI*1), Y5
	VMULPD  Y4, Y2, Y6            // t = wd·v
	VMULPD  Y5, Y2, Y7
	VADDPD  (BX)(SI*1), Y6, Y6    // grad = t + g
	VADDPD  32(BX)(SI*1), Y7, Y7
	VMULPD  Y0, Y6, Y6            // grad·lr
	VMULPD  Y0, Y7, Y7
	VSUBPD  Y6, Y4, Y4            // v − lr·grad
	VSUBPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(SI*1)
	VMOVUPD Y5, 32(DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX
	JMP     plain8

plain4:
	CMPQ    CX, $4
	JLT     plain1
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  Y4, Y2, Y6
	VADDPD  (BX)(SI*1), Y6, Y6
	VMULPD  Y0, Y6, Y6
	VSUBPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ    $32, SI
	SUBQ    $4, CX

plain1:
	TESTQ  CX, CX
	JZ     stepDone
	VMOVSD (DI)(SI*1), X4
	VMULSD X4, X2, X6
	VADDSD (BX)(SI*1), X6, X6
	VMULSD X0, X6, X6
	VSUBSD X6, X4, X4
	VMOVSD X4, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JMP    plain1

stepDone:
	VZEROUPPER
	RET

// func sumSquaresAVX2(x []float64) float64
//
// Σ x[i]² in sixteen chains, as sumSquaresGeneric spells out: lane l of
// Y0…Y3 is chain l, 4+l, 8+l, 12+l, so four elements at a time go to the
// accumulator their position selects, the last one to three to X5 in
// order; then Y0 + Y1 and Y2 + Y3, their sum, its halves and its two lanes,
// and X5 last. Every square is a VMULPD of its own, rounded before the add.
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X5, X5, X5

sq16:
	CMPQ    CX, $16
	JLT     sq4
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y6
	VMOVUPD 64(SI), Y7
	VMOVUPD 96(SI), Y8
	VMULPD  Y4, Y4, Y4
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y4, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     sq16

sq4:
	// At most three groups of four are left: chains 0–3, 4–7, 8–11.
	CMPQ    CX, $4
	JLT     sq1
	VMOVUPD (SI), Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y0, Y0
	CMPQ    CX, $8
	JLT     sq4done
	VMOVUPD 32(SI), Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y1, Y1
	CMPQ    CX, $12
	JLT     sq4done
	VMOVUPD 64(SI), Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y2, Y2

sq4done:
	MOVQ CX, AX
	ANDQ $-4, AX
	LEAQ (SI)(AX*8), SI
	ANDQ $3, CX

sq1:
	TESTQ  CX, CX
	JZ     sqReduce
	VMOVSD (SI), X4
	VMULSD X4, X4, X4
	VADDSD X4, X5, X5
	ADDQ   $8, SI
	DECQ   CX
	JMP    sq1

sqReduce:
	VADDPD       Y1, Y0, Y0 // s[l] + s[4+l]
	VADDPD       Y3, Y2, Y2 // s[8+l] + s[12+l]
	VADDPD       Y2, Y0, Y0 // a[l]
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0 // a[0] + a[2], a[1] + a[3]
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VADDSD       X5, X0, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func scaleAVX2(x []float64, c float64)
//
// x[i] = x[i]·c, x[i] the first source operand as in the scalar loop.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y0

scale8:
	CMPQ    CX, $8
	JLT     scale4
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     scale8

scale4:
	CMPQ    CX, $4
	JLT     scale1
	VMOVUPD (DI), Y4
	VMULPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX

scale1:
	TESTQ  CX, CX
	JZ     scaleDone
	VMOVSD (DI), X4
	VMULSD X0, X4, X4
	VMOVSD X4, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    scale1

scaleDone:
	VZEROUPPER
	RET

// The AVX-512 tier. Its routines run where cpuHasAVX512 holds as well as
// cpuHasAVX2, eight lanes per instruction, under the rules above: VMULPD
// then VADDPD, never a fused multiply-add, each lane one output element.
// A tail shorter than a vector is one group under an opmask: its loads
// zero the idle lanes and its store writes only the live ones, and a masked
// lane is neither read through a fault nor written. Z16–Z31, which only
// the dot tile uses, have no VEX or legacy-SSE alias, so the dirty upper
// state that costs the Go code around a routine is Z0–Z15's alone, and the
// VZEROUPPER at each exit clears it.

// func cpuHasAVX512() bool
//
// AVX-512F is usable when CPUID.1:ECX reports OSXSAVE, XCR0 says the OS
// saves XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state (bits 1, 2, 5, 6
// and 7: 0xE6), and CPUID.7.0:EBX reports AVX512F (bit 16). The routines
// below use no instruction beyond AVX512F (KMOVW, not DQ's KMOVB; VPXORQ,
// not DQ's 512-bit VXORPD).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  probed
	MOVL $1, AX
	CPUID
	ANDL $0x08000000, CX // OSXSAVE
	CMPL CX, $0x08000000
	JNE  probed
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX // XMM | YMM | opmask | ZMM_Hi256 | Hi16_ZMM state
	CMPL AX, $0xE6
	JNE  probed
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $16, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
probed:
	RET

// func axpyRowsAVX512(o, b []float64, offs []int, coefs []float64)
//
// axpyRowsAVX2 with eight lanes per instruction: four rows at a time share
// one sweep over o, o[j] = (((o[j] + c0·b0[j]) + c1·b1[j]) + c2·b2[j]) +
// c3·b3[j], sixteen then eight elements per pass, and the last one to
// three rows are single sweeps. The last len(o) mod 8 elements of every
// sweep are one group under K1. The caller has checked that every
// offs[q]+len(o) ≤ len(b) and len(coefs) ≥ len(offs).
TEXT ·axpyRowsAVX512(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R12
	MOVQ b_base+24(FP), BX
	MOVQ offs_base+48(FP), DX
	MOVQ offs_len+56(FP), R13 // rows left
	MOVQ coefs_base+72(FP), AX

	// K1: lanes j < len(o) mod 8.
	MOVQ  R12, CX
	ANDQ  $7, CX
	MOVL  $1, SI
	SHLL  CX, SI
	DECL  SI
	KMOVW SI, K1

zrows4:
	CMPQ         R13, $4
	JLT          zrows1
	MOVQ         (DX), R8
	MOVQ         8(DX), R9
	MOVQ         16(DX), R10
	MOVQ         24(DX), R11
	LEAQ         (BX)(R8*8), R8
	LEAQ         (BX)(R9*8), R9
	LEAQ         (BX)(R10*8), R10
	LEAQ         (BX)(R11*8), R11
	VBROADCASTSD (AX), Z0
	VBROADCASTSD 8(AX), Z1
	VBROADCASTSD 16(AX), Z2
	VBROADCASTSD 24(AX), Z3
	ADDQ         $32, DX
	ADDQ         $32, AX
	SUBQ         $4, R13
	MOVQ         R12, CX // elements left
	XORQ         SI, SI  // byte offset into the rows

zfused16:
	CMPQ    CX, $16
	JLT     zfused8
	VMOVUPD (DI)(SI*1), Z4
	VMOVUPD 64(DI)(SI*1), Z5
	VMULPD  (R8)(SI*1), Z0, Z6
	VMULPD  64(R8)(SI*1), Z0, Z7
	VADDPD  Z6, Z4, Z4
	VADDPD  Z7, Z5, Z5
	VMULPD  (R9)(SI*1), Z1, Z8
	VMULPD  64(R9)(SI*1), Z1, Z9
	VADDPD  Z8, Z4, Z4
	VADDPD  Z9, Z5, Z5
	VMULPD  (R10)(SI*1), Z2, Z6
	VMULPD  64(R10)(SI*1), Z2, Z7
	VADDPD  Z6, Z4, Z4
	VADDPD  Z7, Z5, Z5
	VMULPD  (R11)(SI*1), Z3, Z8
	VMULPD  64(R11)(SI*1), Z3, Z9
	VADDPD  Z8, Z4, Z4
	VADDPD  Z9, Z5, Z5
	VMOVUPD Z4, (DI)(SI*1)
	VMOVUPD Z5, 64(DI)(SI*1)
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     zfused16

zfused8:
	CMPQ    CX, $8
	JLT     zfusedTail
	VMOVUPD (DI)(SI*1), Z4
	VMULPD  (R8)(SI*1), Z0, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  (R9)(SI*1), Z1, Z7
	VADDPD  Z7, Z4, Z4
	VMULPD  (R10)(SI*1), Z2, Z8
	VADDPD  Z8, Z4, Z4
	VMULPD  (R11)(SI*1), Z3, Z9
	VADDPD  Z9, Z4, Z4
	VMOVUPD Z4, (DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX

zfusedTail:
	TESTQ     CX, CX
	JZ        zrows4
	VMOVUPD.Z (DI)(SI*1), K1, Z4
	VMOVUPD.Z (R8)(SI*1), K1, Z6
	VMOVUPD.Z (R9)(SI*1), K1, Z7
	VMOVUPD.Z (R10)(SI*1), K1, Z8
	VMOVUPD.Z (R11)(SI*1), K1, Z9
	VMULPD    Z6, Z0, Z6
	VADDPD    Z6, Z4, Z4
	VMULPD    Z7, Z1, Z7
	VADDPD    Z7, Z4, Z4
	VMULPD    Z8, Z2, Z8
	VADDPD    Z8, Z4, Z4
	VMULPD    Z9, Z3, Z9
	VADDPD    Z9, Z4, Z4
	VMOVUPD   Z4, K1, (DI)(SI*1)
	JMP       zrows4

zrows1:
	TESTQ        R13, R13
	JZ           zrowsDone
	MOVQ         (DX), R8
	LEAQ         (BX)(R8*8), R8
	VBROADCASTSD (AX), Z0
	ADDQ         $8, DX
	ADDQ         $8, AX
	DECQ         R13
	MOVQ         R12, CX
	XORQ         SI, SI

zsingle16:
	CMPQ    CX, $16
	JLT     zsingle8
	VMOVUPD (DI)(SI*1), Z4
	VMOVUPD 64(DI)(SI*1), Z5
	VMULPD  (R8)(SI*1), Z0, Z6
	VMULPD  64(R8)(SI*1), Z0, Z7
	VADDPD  Z6, Z4, Z4
	VADDPD  Z7, Z5, Z5
	VMOVUPD Z4, (DI)(SI*1)
	VMOVUPD Z5, 64(DI)(SI*1)
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     zsingle16

zsingle8:
	CMPQ    CX, $8
	JLT     zsingleTail
	VMOVUPD (DI)(SI*1), Z4
	VMULPD  (R8)(SI*1), Z0, Z6
	VADDPD  Z6, Z4, Z4
	VMOVUPD Z4, (DI)(SI*1)
	ADDQ    $64, SI
	SUBQ    $8, CX

zsingleTail:
	TESTQ     CX, CX
	JZ        zrows1
	VMOVUPD.Z (DI)(SI*1), K1, Z4
	VMOVUPD.Z (R8)(SI*1), K1, Z6
	VMULPD    Z6, Z0, Z6
	VADDPD    Z6, Z4, Z4
	VMOVUPD   Z4, K1, (DI)(SI*1)
	JMP       zrows1

zrowsDone:
	VZEROUPPER
	RET

// ZCOLS8 transposes eight values of p of the eight b rows — Z8…Z15, row j
// in Z(8+j) — into Z16…Z23, where lane j of Z(16+q) is b row j at the q-th
// of the eight values: unpacking pairs of rows, then two rounds of 128-bit
// lane shuffles. It writes Z8…Z23.
#define ZCOLS8 \
	VUNPCKLPD  Z9, Z8, Z16; \
	VUNPCKHPD  Z9, Z8, Z17; \
	VUNPCKLPD  Z11, Z10, Z18; \
	VUNPCKHPD  Z11, Z10, Z19; \
	VUNPCKLPD  Z13, Z12, Z20; \
	VUNPCKHPD  Z13, Z12, Z21; \
	VUNPCKLPD  Z15, Z14, Z22; \
	VUNPCKHPD  Z15, Z14, Z23; \
	VSHUFF64X2 $0x88, Z18, Z16, Z8; \
	VSHUFF64X2 $0xDD, Z18, Z16, Z9; \
	VSHUFF64X2 $0x88, Z19, Z17, Z10; \
	VSHUFF64X2 $0xDD, Z19, Z17, Z11; \
	VSHUFF64X2 $0x88, Z22, Z20, Z12; \
	VSHUFF64X2 $0xDD, Z22, Z20, Z13; \
	VSHUFF64X2 $0x88, Z23, Z21, Z14; \
	VSHUFF64X2 $0xDD, Z23, Z21, Z15; \
	VSHUFF64X2 $0x88, Z12, Z8, Z16; \
	VSHUFF64X2 $0xDD, Z12, Z8, Z20; \
	VSHUFF64X2 $0x88, Z13, Z9, Z18; \
	VSHUFF64X2 $0xDD, Z13, Z9, Z22; \
	VSHUFF64X2 $0x88, Z14, Z10, Z17; \
	VSHUFF64X2 $0xDD, Z14, Z10, Z21; \
	VSHUFF64X2 $0x88, Z15, Z11, Z19; \
	VSHUFF64X2 $0xDD, Z15, Z11, Z23

// ZDOTSTEP adds one value of p, at byte offset off into the a rows, to the
// eight accumulators: bcol holds b0[p] … b7[p], and lane j of Z(r) is the
// running dot product of a row r with b row j. a row r is at AX, AX+L,
// AX+2L, BX, BX+L, BX+2L, CX, CX+L (R12 = L, the row length in bytes).
// As in DOTSTEP, a[r][p] is broadcast into a register and is the product's
// first operand, so where both factors are NaN the lane keeps a's payload,
// as dotTileAVX2's does.
#define ZDOTSTEP(off, bcol) \
	VBROADCASTSD off(AX), Z24; \
	VBROADCASTSD off(AX)(R12*1), Z25; \
	VBROADCASTSD off(AX)(R12*2), Z26; \
	VBROADCASTSD off(BX), Z27; \
	VBROADCASTSD off(BX)(R12*1), Z28; \
	VBROADCASTSD off(BX)(R12*2), Z29; \
	VBROADCASTSD off(CX), Z30; \
	VBROADCASTSD off(CX)(R12*1), Z31; \
	VMULPD       bcol, Z24, Z24; \
	VMULPD       bcol, Z25, Z25; \
	VMULPD       bcol, Z26, Z26; \
	VMULPD       bcol, Z27, Z27; \
	VMULPD       bcol, Z28, Z28; \
	VMULPD       bcol, Z29, Z29; \
	VMULPD       bcol, Z30, Z30; \
	VMULPD       bcol, Z31, Z31; \
	VADDPD       Z24, Z0, Z0; \
	VADDPD       Z25, Z1, Z1; \
	VADDPD       Z26, Z2, Z2; \
	VADDPD       Z27, Z3, Z3; \
	VADDPD       Z28, Z4, Z4; \
	VADDPD       Z29, Z5, Z5; \
	VADDPD       Z30, Z6, Z6; \
	VADDPD       Z31, Z7, Z7

// func dotTile8AVX512(o []float64, ldo int, a, b []float64, k int)
//
// o[r·ldo + j] = Σ_p a[r·k + p]·b[j·k + p] for r, j < 8: eight rows of a
// against eight rows of b (all of length k), each of the sixty-four sums
// one lane's own accumulator over ascending p, starting from +0 — eight
// independent chains where dotTileAVX2 has four. Eight values of p at a
// time, the b rows are loaded whole and transposed (ZCOLS8); the last
// k mod 8 are loaded under K1 and only their steps run.
TEXT ·dotTile8AVX512(SB), NOSPLIT, $0-88
	MOVQ   k+80(FP), DI
	MOVQ   DI, R12
	SHLQ   $3, R12 // row length in bytes
	MOVQ   a_base+32(FP), AX
	LEAQ   (AX)(R12*2), BX
	ADDQ   R12, BX // a row 3
	LEAQ   (BX)(R12*2), CX
	ADDQ   R12, CX // a row 6
	MOVQ   b_base+56(FP), DX
	LEAQ   (DX)(R12*2), R8
	ADDQ   R12, R8 // b row 3
	LEAQ   (R8)(R12*2), R9
	ADDQ   R12, R9 // b row 6
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

zdot8:
	CMPQ    DI, $8
	JLT     zdotTail
	VMOVUPD (DX), Z8
	VMOVUPD (DX)(R12*1), Z9
	VMOVUPD (DX)(R12*2), Z10
	VMOVUPD (R8), Z11
	VMOVUPD (R8)(R12*1), Z12
	VMOVUPD (R8)(R12*2), Z13
	VMOVUPD (R9), Z14
	VMOVUPD (R9)(R12*1), Z15
	ZCOLS8
	ZDOTSTEP(0, Z16)
	ZDOTSTEP(8, Z17)
	ZDOTSTEP(16, Z18)
	ZDOTSTEP(24, Z19)
	ZDOTSTEP(32, Z20)
	ZDOTSTEP(40, Z21)
	ZDOTSTEP(48, Z22)
	ZDOTSTEP(56, Z23)
	ADDQ    $64, AX
	ADDQ    $64, BX
	ADDQ    $64, CX
	ADDQ    $64, DX
	ADDQ    $64, R8
	ADDQ    $64, R9
	SUBQ    $8, DI
	JMP     zdot8

zdotTail:
	TESTQ     DI, DI
	JZ        zdotStore
	MOVL      $1, R10
	MOVQ      DI, CX
	SHLL      CX, R10
	DECL      R10
	KMOVW     R10, K1 // lanes p < k mod 8
	LEAQ      (BX)(R12*2), CX
	ADDQ      R12, CX // a row 6 again
	VMOVUPD.Z (DX), K1, Z8
	VMOVUPD.Z (DX)(R12*1), K1, Z9
	VMOVUPD.Z (DX)(R12*2), K1, Z10
	VMOVUPD.Z (R8), K1, Z11
	VMOVUPD.Z (R8)(R12*1), K1, Z12
	VMOVUPD.Z (R8)(R12*2), K1, Z13
	VMOVUPD.Z (R9), K1, Z14
	VMOVUPD.Z (R9)(R12*1), K1, Z15
	ZCOLS8
	ZDOTSTEP(0, Z16)
	CMPQ      DI, $2
	JLT       zdotStore
	ZDOTSTEP(8, Z17)
	CMPQ      DI, $3
	JLT       zdotStore
	ZDOTSTEP(16, Z18)
	CMPQ      DI, $4
	JLT       zdotStore
	ZDOTSTEP(24, Z19)
	CMPQ      DI, $5
	JLT       zdotStore
	ZDOTSTEP(32, Z20)
	CMPQ      DI, $6
	JLT       zdotStore
	ZDOTSTEP(40, Z21)
	CMPQ      DI, $7
	JLT       zdotStore
	ZDOTSTEP(48, Z22)

zdotStore:
	MOVQ    o_base+0(FP), DI
	MOVQ    ldo+24(FP), R12
	SHLQ    $3, R12
	LEAQ    (DI)(R12*2), BX
	ADDQ    R12, BX // o row 3
	LEAQ    (BX)(R12*2), CX
	ADDQ    R12, CX // o row 6
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R12*1)
	VMOVUPD Z2, (DI)(R12*2)
	VMOVUPD Z3, (BX)
	VMOVUPD Z4, (BX)(R12*1)
	VMOVUPD Z5, (BX)(R12*2)
	VMOVUPD Z6, (CX)
	VMOVUPD Z7, (CX)(R12*1)
	VZEROUPPER
	RET
