//go:build !purego

#include "textflag.h"

// The AVX2 row primitives behind rowprim_amd64.go. Every lane is one output
// element going through the roundings of the portable loop in rowprim.go:
// VMULPD then VADDPD, never a fused multiply-add, and no sum is reassociated.
// The one exception is expShiftAVX2, whose lanes go through the roundings of
// math.Exp's own amd64 body, fused multiply-adds included, and which runs
// only on CPUs where math.Exp takes that FMA branch. Loads and stores are
// unaligned (operands are arbitrary sub-slices), tails shorter than a vector
// run the same instructions in their scalar form (expShiftAVX2's, as a masked
// group of four), and every routine ends in VZEROUPPER because the Go code
// around it uses legacy SSE encodings.

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
