// AVX strips under MatMulNT, AddOuterPanel, MatVecAdd4 and ProxStep, and
// AVX2 strips under the byte quantiser's three loops and under Normals
// (see the package comment in tensor.go for the contract). Every strip
// performs, per element, exactly the multiplies, adds and subtracts of the
// Go code it replaces (Normals': math.Log's and math.Cos's, and their one
// divide and one square root), in that code's order, each rounded on its
// own: packed and scalar AVX arithmetic only, never a fused multiply-add.
// Each loop body is written once as a macro and instantiated for the
// vector step and for the scalar tail at both widths, so the four cannot
// drift apart.
//
// Go operand order: OP src2, src1, dst computes dst = src1 OP src2.

#include "textflag.h"

// func cpuAVX() (avx, avx2 bool)
//
// AVX is usable when CPUID.1:ECX reports AVX and OSXSAVE and XCR0 says the
// OS saves both the SSE and the AVX register state; AVX2 when CPUID.7:EBX
// reports it on top (AVX implies leaf 13, so leaf 7 exists). The one CPUID.
TEXT ·cpuAVX(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  cpudone
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  cpudone
	MOVB $1, avx+0(FP)
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  cpudone
	MOVB $1, avx2+1(FP)

cpudone:
	RET

// ---- MatMulNT: two weight rows against four examples ----
//
// Register use: R9, R10 the weight rows, SI, R11, R12, R13 the example
// rows, AX the element index k, CX d, DX d rounded down to a multiple of
// four. Through the four-wide loop one even-numbered register per example
// holds both rows' accumulator pairs, (s0, t0 | s1, t1); the split after
// the loop moves row 1's pair to the odd register beside it, and the tail
// and the final sums work on a row's (s, t) in the two low lanes of its
// own register. A block of fewer than four examples repeats its last one
// in the lanes past n, whose sums are never stored.

// DOT4F64 folds one four-element block of example row P into ACC: the two
// 256-bit products are (p0, p1, p2, p3) and (q0, q1, q2, q3), regrouped
// as (p0, p1 | q0, q1) + (p2, p3 | q2, q3) = both rows' (x0+x2, x1+x3).
#define DOT4F64(P, ACC) \
	VMOVUPD    (P)(AX*8), Y10       \
	VMULPD     Y8, Y10, Y11         \
	VMULPD     Y9, Y10, Y12         \
	VPERM2F128 $0x20, Y12, Y11, Y13 \
	VPERM2F128 $0x31, Y12, Y11, Y14 \
	VADDPD     Y14, Y13, Y13        \
	VADDPD     Y13, ACC, ACC

// DOT4F32 is the same block at float32, where four elements and so both
// rows' pairs fit one 128-bit register.
#define DOT4F32(P, ACC) \
	VMOVUPS   (P)(AX*4), X10 \
	VMULPS    X8, X10, X11   \
	VMULPS    X9, X10, X12   \
	VMOVLHPS  X12, X11, X13  \
	VUNPCKHPD X12, X11, X14  \
	VADDPS    X14, X13, X13  \
	VADDPS    X13, ACC, ACC

// DOT1 is one tail element: s += a·w in lane 0, t untouched.
#define DOT1(MOV, MUL, ADD, SZ, P, A0, A1) \
	MOV (P)(AX*SZ), X10 \
	MUL X8, X10, X11    \
	MUL X9, X10, X12    \
	ADD X11, A0, A0     \
	ADD X12, A1, A1

// FIN64 and FIN32 store (s + t) + off for both rows of one example at
// OUT; X14 and X15 hold the two offsets.
#define FIN64(A0, A1, OUT) \
	VUNPCKHPD A0, A0, X10   \
	VUNPCKHPD A1, A1, X11   \
	VADDSD    X10, A0, X10  \
	VADDSD    X11, A1, X11  \
	VADDSD    X14, X10, X10 \
	VADDSD    X15, X11, X11 \
	VMOVSD    X10, (OUT)    \
	VMOVSD    X11, 8(OUT)

#define FIN32(A0, A1, OUT) \
	VMOVSHDUP A0, X10       \
	VMOVSHDUP A1, X11       \
	VADDSS    X10, A0, X10  \
	VADDSS    X11, A1, X11  \
	VADDSS    X14, X10, X10 \
	VADDSS    X15, X11, X11 \
	VMOVSS    X10, (OUT)    \
	VMOVSS    X11, 4(OUT)

// func matMulNT2x4F64(out unsafe.Pointer, stride int, x0, x1, x2, x3, w0, w1 unsafe.Pointer, d int, off0, off1 float64, n int)
TEXT ·matMulNT2x4F64(SB), NOSPLIT, $0-96
	MOVQ   x0+16(FP), SI
	MOVQ   x1+24(FP), R11
	MOVQ   x2+32(FP), R12
	MOVQ   x3+40(FP), R13
	MOVQ   w0+48(FP), R9
	MOVQ   w1+56(FP), R10
	MOVQ   d+64(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	MOVQ   n+88(FP), BX
	CMPQ   BX, $2
	JLE    nt2f64loop

nt4f64loop:
	CMPQ    AX, DX
	JGE     nt4f64split
	VMOVUPD (R9)(AX*8), Y8
	VMOVUPD (R10)(AX*8), Y9
	DOT4F64(SI, Y0)
	DOT4F64(R11, Y2)
	DOT4F64(R12, Y4)
	DOT4F64(R13, Y6)
	ADDQ    $4, AX
	JMP     nt4f64loop

// A block of one or two examples runs the loop for the first two; the
// other two sums stay +0 through it and are never stored.
nt2f64loop:
	CMPQ    AX, DX
	JGE     nt4f64split
	VMOVUPD (R9)(AX*8), Y8
	VMOVUPD (R10)(AX*8), Y9
	DOT4F64(SI, Y0)
	DOT4F64(R11, Y2)
	ADDQ    $4, AX
	JMP     nt2f64loop

nt4f64split:
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VEXTRACTF128 $1, Y4, X5
	VEXTRACTF128 $1, Y6, X7

nt4f64tail:
	CMPQ   AX, CX
	JGE    nt4f64done
	VMOVSD (R9)(AX*8), X8
	VMOVSD (R10)(AX*8), X9
	DOT1(VMOVSD, VMULSD, VADDSD, 8, SI, X0, X1)
	DOT1(VMOVSD, VMULSD, VADDSD, 8, R11, X2, X3)
	DOT1(VMOVSD, VMULSD, VADDSD, 8, R12, X4, X5)
	DOT1(VMOVSD, VMULSD, VADDSD, 8, R13, X6, X7)
	INCQ   AX
	JMP    nt4f64tail

nt4f64done:
	MOVQ   out+0(FP), DI
	MOVQ   stride+8(FP), R8
	SHLQ   $3, R8
	VMOVSD off0+72(FP), X14
	VMOVSD off1+80(FP), X15
	FIN64(X0, X1, DI)
	CMPQ   BX, $2
	JLT    nt4f64out
	ADDQ   R8, DI
	FIN64(X2, X3, DI)
	CMPQ   BX, $3
	JLT    nt4f64out
	ADDQ   R8, DI
	FIN64(X4, X5, DI)
	CMPQ   BX, $4
	JLT    nt4f64out
	ADDQ   R8, DI
	FIN64(X6, X7, DI)

nt4f64out:
	VZEROUPPER
	RET

// The float32 MatMulNT strip uses 128-bit registers only (VEX encoded, so
// the upper halves stay clean and there is nothing for VZEROUPPER to do).

// func matMulNT2x4F32(out unsafe.Pointer, stride int, x0, x1, x2, x3, w0, w1 unsafe.Pointer, d int, off0, off1 float32, n int)
TEXT ·matMulNT2x4F32(SB), NOSPLIT, $0-88
	MOVQ   x0+16(FP), SI
	MOVQ   x1+24(FP), R11
	MOVQ   x2+32(FP), R12
	MOVQ   x3+40(FP), R13
	MOVQ   w0+48(FP), R9
	MOVQ   w1+56(FP), R10
	MOVQ   d+64(FP), CX
	VXORPS X0, X0, X0
	VXORPS X2, X2, X2
	VXORPS X4, X4, X4
	VXORPS X6, X6, X6
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	MOVQ   n+80(FP), BX
	CMPQ   BX, $2
	JLE    nt2f32loop

nt4f32loop:
	CMPQ    AX, DX
	JGE     nt4f32split
	VMOVUPS (R9)(AX*4), X8
	VMOVUPS (R10)(AX*4), X9
	DOT4F32(SI, X0)
	DOT4F32(R11, X2)
	DOT4F32(R12, X4)
	DOT4F32(R13, X6)
	ADDQ    $4, AX
	JMP     nt4f32loop

// A block of one or two examples runs the loop for the first two; the
// other two sums stay +0 through it and are never stored.
nt2f32loop:
	CMPQ    AX, DX
	JGE     nt4f32split
	VMOVUPS (R9)(AX*4), X8
	VMOVUPS (R10)(AX*4), X9
	DOT4F32(SI, X0)
	DOT4F32(R11, X2)
	ADDQ    $4, AX
	JMP     nt2f32loop

nt4f32split:
	VMOVHLPS X0, X0, X1
	VMOVHLPS X2, X2, X3
	VMOVHLPS X4, X4, X5
	VMOVHLPS X6, X6, X7

nt4f32tail:
	CMPQ   AX, CX
	JGE    nt4f32done
	VMOVSS (R9)(AX*4), X8
	VMOVSS (R10)(AX*4), X9
	DOT1(VMOVSS, VMULSS, VADDSS, 4, SI, X0, X1)
	DOT1(VMOVSS, VMULSS, VADDSS, 4, R11, X2, X3)
	DOT1(VMOVSS, VMULSS, VADDSS, 4, R12, X4, X5)
	DOT1(VMOVSS, VMULSS, VADDSS, 4, R13, X6, X7)
	INCQ   AX
	JMP    nt4f32tail

nt4f32done:
	MOVQ   out+0(FP), DI
	MOVQ   stride+8(FP), R8
	SHLQ   $2, R8
	VMOVSS off0+72(FP), X14
	VMOVSS off1+76(FP), X15
	FIN32(X0, X1, DI)
	CMPQ   BX, $2
	JLT    nt4f32out
	ADDQ   R8, DI
	FIN32(X2, X3, DI)
	CMPQ   BX, $3
	JLT    nt4f32out
	ADDQ   R8, DI
	FIN32(X4, X5, DI)
	CMPQ   BX, $4
	JLT    nt4f32out
	ADDQ   R8, DI
	FIN32(X6, X7, DI)

nt4f32out:
	RET

// ---- AddOuterPanel: two destination rows, four examples or the rest ----
//
// Register use: DI, SI the destination rows r0, r1; R8..R11 the example
// rows; AX the element index k, CX d, BX d rounded down to the lane count.
// In the four-example strip registers 0-3 hold row 0's coefficients in
// every lane and 4-7 row 1's; register 14 is +0.

// OUTER4 is one step of r0[k] = B0 + (((c00·x0 + c01·x1) + c02·x2) + c03·x3)
// and the same for r1 with B1: B0 and B1 are the rows themselves when the
// block adds to them, and the +0 register when it writes them, so that the
// first block's sums land as they would on zeroed rows (+0 + −0 is +0).
// The register arguments pick the lane count. The writing loops prefetch
// the rows they store to, which they never read: a store that misses L1
// holds up the stores behind it, where a load that misses, as the adding
// loops' does, overlaps with the work around it.
#define OUTER4(MOV, MUL, ADD, SZ, C00, C01, C02, C03, C10, C11, C12, C13, V0, V1, V2, V3, S, T, B0, B1) \
	MOV (R8)(AX*SZ), V0  \
	MOV (R9)(AX*SZ), V1  \
	MOV (R10)(AX*SZ), V2 \
	MOV (R11)(AX*SZ), V3 \
	MUL V0, C00, S       \
	MUL V1, C01, T       \
	ADD T, S, S          \
	MUL V2, C02, T       \
	ADD T, S, S          \
	MUL V3, C03, T       \
	ADD T, S, S          \
	ADD B0, S, S         \
	MOV S, (DI)(AX*SZ)   \
	MUL V0, C10, S       \
	MUL V1, C11, T       \
	ADD T, S, S          \
	MUL V2, C12, T       \
	ADD T, S, S          \
	MUL V3, C13, T       \
	ADD T, S, S          \
	ADD B1, S, S         \
	MOV S, (SI)(AX*SZ)

// The leftover strip adds one, two or three examples to the rows in one
// pass, one example after another — r[k] = ((r[k] + c0·x0) + c1·x1) +
// c2·x2, the sums adding the examples in separate passes would leave.
// Registers 0 and 1 hold example 0's coefficients for rows 0 and 1, 2 and
// 3 example 1's, 4 and 5 example 2's.

// SEQ1 starts both rows' sums with the first example: S = c0·x0 + r0[k],
// T = c1·x0 + r1[k].
#define SEQ1(MOV, MUL, ADD, SZ, C0, C1, V, S, T) \
	MOV (R8)(AX*SZ), V    \
	MUL V, C0, S          \
	MUL V, C1, T          \
	ADD (DI)(AX*SZ), S, S \
	ADD (SI)(AX*SZ), T, T

// SEQ adds the example at P: S = c0·x + S, T = c1·x + T.
#define SEQ(MOV, MUL, ADD, SZ, P, C0, C1, V, U, S, T) \
	MOV (P)(AX*SZ), V \
	MUL V, C0, U      \
	ADD S, U, S       \
	MUL V, C1, U      \
	ADD T, U, T

#define STORE2(MOV, SZ, S, T) \
	MOV S, (DI)(AX*SZ) \
	MOV T, (SI)(AX*SZ)

#define LEFT1(MOV, MUL, ADD, SZ, A0, A1, B0, B1, C0, C1, V, U, S, T) \
	SEQ1(MOV, MUL, ADD, SZ, A0, A1, V, S, T) \
	STORE2(MOV, SZ, S, T)

#define LEFT2(MOV, MUL, ADD, SZ, A0, A1, B0, B1, C0, C1, V, U, S, T) \
	SEQ1(MOV, MUL, ADD, SZ, A0, A1, V, S, T)       \
	SEQ(MOV, MUL, ADD, SZ, R9, B0, B1, V, U, S, T) \
	STORE2(MOV, SZ, S, T)

#define LEFT3(MOV, MUL, ADD, SZ, A0, A1, B0, B1, C0, C1, V, U, S, T) \
	SEQ1(MOV, MUL, ADD, SZ, A0, A1, V, S, T)        \
	SEQ(MOV, MUL, ADD, SZ, R9, B0, B1, V, U, S, T)  \
	SEQ(MOV, MUL, ADD, SZ, R10, C0, C1, V, U, S, T) \
	STORE2(MOV, SZ, S, T)

// func addOuter2x4F64(r0, r1, x0, x1, x2, x3 unsafe.Pointer, d int, c unsafe.Pointer, write bool)
TEXT ·addOuter2x4F64(SB), NOSPLIT, $0-65
	MOVQ         r0+0(FP), DI
	MOVQ         r1+8(FP), SI
	MOVQ         x0+16(FP), R8
	MOVQ         x1+24(FP), R9
	MOVQ         x2+32(FP), R10
	MOVQ         x3+40(FP), R11
	MOVQ         d+48(FP), CX
	MOVQ         c+56(FP), DX
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD 32(DX), Y4
	VBROADCASTSD 40(DX), Y5
	VBROADCASTSD 48(DX), Y6
	VBROADCASTSD 56(DX), Y7
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	CMPB         write+64(FP), $0
	JNE          ao4wf64loop

ao4f64loop:
	CMPQ AX, BX
	JGE  ao4f64tail
	OUTER4(VMOVUPD, VMULPD, VADDPD, 8, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, (DI)(AX*8), (SI)(AX*8))
	ADDQ $4, AX
	JMP  ao4f64loop

ao4f64tail:
	CMPQ AX, CX
	JGE  ao4f64done
	OUTER4(VMOVSD, VMULSD, VADDSD, 8, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, (DI)(AX*8), (SI)(AX*8))
	INCQ AX
	JMP  ao4f64tail

ao4wf64loop:
	CMPQ AX, BX
	JGE  ao4wf64tail
	PREFETCHT0 (DI)(AX*8)
	PREFETCHT0 (SI)(AX*8)
	OUTER4(VMOVUPD, VMULPD, VADDPD, 8, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y14)
	ADDQ $4, AX
	JMP  ao4wf64loop

ao4wf64tail:
	CMPQ AX, CX
	JGE  ao4f64done
	OUTER4(VMOVSD, VMULSD, VADDSD, 8, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X14)
	INCQ AX
	JMP  ao4wf64tail

ao4f64done:
	VZEROUPPER
	RET

// func addOuter2xNF64(r0, r1, x0, x1, x2 unsafe.Pointer, d int, c unsafe.Pointer, n int)
TEXT ·addOuter2xNF64(SB), NOSPLIT, $0-64
	MOVQ         r0+0(FP), DI
	MOVQ         r1+8(FP), SI
	MOVQ         x0+16(FP), R8
	MOVQ         x1+24(FP), R9
	MOVQ         x2+32(FP), R10
	MOVQ         d+40(FP), CX
	MOVQ         c+48(FP), DX
	MOVQ         n+56(FP), R11
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 32(DX), Y1
	VBROADCASTSD 8(DX), Y2
	VBROADCASTSD 40(DX), Y3
	VBROADCASTSD 16(DX), Y4
	VBROADCASTSD 48(DX), Y5
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	CMPQ         R11, $2
	JLT          al1f64loop
	JEQ          al2f64loop

al3f64loop:
	CMPQ AX, BX
	JGE  al3f64tail
	LEFT3(VMOVUPD, VMULPD, VADDPD, 8, Y0, Y1, Y2, Y3, Y4, Y5, Y8, Y9, Y12, Y13)
	ADDQ $4, AX
	JMP  al3f64loop

al3f64tail:
	CMPQ AX, CX
	JGE  alf64done
	LEFT3(VMOVSD, VMULSD, VADDSD, 8, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	INCQ AX
	JMP  al3f64tail

al2f64loop:
	CMPQ AX, BX
	JGE  al2f64tail
	LEFT2(VMOVUPD, VMULPD, VADDPD, 8, Y0, Y1, Y2, Y3, Y4, Y5, Y8, Y9, Y12, Y13)
	ADDQ $4, AX
	JMP  al2f64loop

al2f64tail:
	CMPQ AX, CX
	JGE  alf64done
	LEFT2(VMOVSD, VMULSD, VADDSD, 8, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	INCQ AX
	JMP  al2f64tail

al1f64loop:
	CMPQ AX, BX
	JGE  al1f64tail
	LEFT1(VMOVUPD, VMULPD, VADDPD, 8, Y0, Y1, Y2, Y3, Y4, Y5, Y8, Y9, Y12, Y13)
	ADDQ $4, AX
	JMP  al1f64loop

al1f64tail:
	CMPQ AX, CX
	JGE  alf64done
	LEFT1(VMOVSD, VMULSD, VADDSD, 8, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	INCQ AX
	JMP  al1f64tail

alf64done:
	VZEROUPPER
	RET

// The float32 strips take eight lanes at a time, then one four-lane half
// step, then single elements.

// func addOuter2x4F32(r0, r1, x0, x1, x2, x3 unsafe.Pointer, d int, c unsafe.Pointer, write bool)
TEXT ·addOuter2x4F32(SB), NOSPLIT, $0-65
	MOVQ         r0+0(FP), DI
	MOVQ         r1+8(FP), SI
	MOVQ         x0+16(FP), R8
	MOVQ         x1+24(FP), R9
	MOVQ         x2+32(FP), R10
	MOVQ         x3+40(FP), R11
	MOVQ         d+48(FP), CX
	MOVQ         c+56(FP), DX
	VBROADCASTSS 0(DX), Y0
	VBROADCASTSS 4(DX), Y1
	VBROADCASTSS 8(DX), Y2
	VBROADCASTSS 12(DX), Y3
	VBROADCASTSS 16(DX), Y4
	VBROADCASTSS 20(DX), Y5
	VBROADCASTSS 24(DX), Y6
	VBROADCASTSS 28(DX), Y7
	VXORPS       Y14, Y14, Y14
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	CMPB         write+64(FP), $0
	JNE          ao4wf32loop

ao4f32loop:
	CMPQ AX, BX
	JGE  ao4f32half
	OUTER4(VMOVUPS, VMULPS, VADDPS, 4, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, (DI)(AX*4), (SI)(AX*4))
	ADDQ $8, AX
	JMP  ao4f32loop

ao4f32half:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  ao4f32tail
	OUTER4(VMOVUPS, VMULPS, VADDPS, 4, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, (DI)(AX*4), (SI)(AX*4))
	MOVQ BX, AX

ao4f32tail:
	CMPQ AX, CX
	JGE  ao4f32done
	OUTER4(VMOVSS, VMULSS, VADDSS, 4, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, (DI)(AX*4), (SI)(AX*4))
	INCQ AX
	JMP  ao4f32tail

ao4wf32loop:
	CMPQ AX, BX
	JGE  ao4wf32half
	PREFETCHT0 (DI)(AX*4)
	PREFETCHT0 (SI)(AX*4)
	OUTER4(VMOVUPS, VMULPS, VADDPS, 4, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y14)
	ADDQ $8, AX
	JMP  ao4wf32loop

ao4wf32half:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  ao4wf32tail
	OUTER4(VMOVUPS, VMULPS, VADDPS, 4, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X14)
	MOVQ BX, AX

ao4wf32tail:
	CMPQ AX, CX
	JGE  ao4f32done
	OUTER4(VMOVSS, VMULSS, VADDSS, 4, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X14)
	INCQ AX
	JMP  ao4wf32tail

ao4f32done:
	VZEROUPPER
	RET

// func addOuter2xNF32(r0, r1, x0, x1, x2 unsafe.Pointer, d int, c unsafe.Pointer, n int)
TEXT ·addOuter2xNF32(SB), NOSPLIT, $0-64
	MOVQ         r0+0(FP), DI
	MOVQ         r1+8(FP), SI
	MOVQ         x0+16(FP), R8
	MOVQ         x1+24(FP), R9
	MOVQ         x2+32(FP), R10
	MOVQ         d+40(FP), CX
	MOVQ         c+48(FP), DX
	MOVQ         n+56(FP), R11
	VBROADCASTSS 0(DX), Y0
	VBROADCASTSS 16(DX), Y1
	VBROADCASTSS 4(DX), Y2
	VBROADCASTSS 20(DX), Y3
	VBROADCASTSS 8(DX), Y4
	VBROADCASTSS 24(DX), Y5
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	CMPQ         R11, $2
	JLT          al1f32loop
	JEQ          al2f32loop

al3f32loop:
	CMPQ AX, BX
	JGE  al3f32half
	LEFT3(VMOVUPS, VMULPS, VADDPS, 4, Y0, Y1, Y2, Y3, Y4, Y5, Y8, Y9, Y12, Y13)
	ADDQ $8, AX
	JMP  al3f32loop

al3f32half:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  al3f32tail
	LEFT3(VMOVUPS, VMULPS, VADDPS, 4, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	MOVQ BX, AX

al3f32tail:
	CMPQ AX, CX
	JGE  alf32done
	LEFT3(VMOVSS, VMULSS, VADDSS, 4, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	INCQ AX
	JMP  al3f32tail

al2f32loop:
	CMPQ AX, BX
	JGE  al2f32half
	LEFT2(VMOVUPS, VMULPS, VADDPS, 4, Y0, Y1, Y2, Y3, Y4, Y5, Y8, Y9, Y12, Y13)
	ADDQ $8, AX
	JMP  al2f32loop

al2f32half:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  al2f32tail
	LEFT2(VMOVUPS, VMULPS, VADDPS, 4, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	MOVQ BX, AX

al2f32tail:
	CMPQ AX, CX
	JGE  alf32done
	LEFT2(VMOVSS, VMULSS, VADDSS, 4, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	INCQ AX
	JMP  al2f32tail

al1f32loop:
	CMPQ AX, BX
	JGE  al1f32half
	LEFT1(VMOVUPS, VMULPS, VADDPS, 4, Y0, Y1, Y2, Y3, Y4, Y5, Y8, Y9, Y12, Y13)
	ADDQ $8, AX
	JMP  al1f32loop

al1f32half:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  al1f32tail
	LEFT1(VMOVUPS, VMULPS, VADDPS, 4, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	MOVQ BX, AX

al1f32tail:
	CMPQ AX, CX
	JGE  alf32done
	LEFT1(VMOVSS, VMULSS, VADDSS, 4, X0, X1, X2, X3, X4, X5, X8, X9, X12, X13)
	INCQ AX
	JMP  al1f32tail

alf32done:
	VZEROUPPER
	RET

// ---- MatVecAdd4: five weight rows against four examples, float64 ----
//
// The four examples sit in the four lanes, so each weight element is
// broadcast and every lane's sum runs from +0 left to right, as MatVec's
// one scalar chain per row does. Register use through the loops: SI, R11,
// R12, R13 the example rows, R9, R10, BX, DI, R8 the weight rows, AX the
// element index, CX d, DX d rounded down to a multiple of four; Y0-Y4 the
// five rows' accumulators, Y5-Y9 the examples' elements, Y10-Y14 products.

// MAC is one step of row W's sums in every lane: ACC += W[k]·COL.
#define MAC(W, OFF, COL, T, ACC) \
	VBROADCASTSD OFF(W)(AX*8), T \
	VMULPD       COL, T, T       \
	VADDPD       T, ACC, ACC

// COL5 folds one element of the four examples, (x0[k], x1[k], x2[k],
// x3[k]) in COL, into all five rows; OFF is k's byte offset from AX.
#define COL5(OFF, COL) \
	MAC(R9, OFF, COL, Y10, Y0)  \
	MAC(R10, OFF, COL, Y11, Y1) \
	MAC(BX, OFF, COL, Y12, Y2)  \
	MAC(DI, OFF, COL, Y13, Y3)  \
	MAC(R8, OFF, COL, Y14, Y4)

// STORE5 writes one lane of the five accumulators, the low (VMOVSD) or
// high (VMOVHPD) half of X0-X4, as one example's five logits at DI.
#define STORE5(MOV) \
	MOV X0, 0(DI)  \
	MOV X1, 8(DI)  \
	MOV X2, 16(DI) \
	MOV X3, 24(DI) \
	MOV X4, 32(DI)

// func matVec4x5F64(out unsafe.Pointer, stride int, x0, x1, x2, x3, w unsafe.Pointer, d int, b unsafe.Pointer, n int)
TEXT ·matVec4x5F64(SB), NOSPLIT, $0-80
	MOVQ   x0+16(FP), SI
	MOVQ   x1+24(FP), R11
	MOVQ   x2+32(FP), R12
	MOVQ   x3+40(FP), R13
	MOVQ   w+48(FP), R9
	MOVQ   d+56(FP), CX
	LEAQ   (R9)(CX*8), R10
	LEAQ   (R10)(CX*8), BX
	LEAQ   (BX)(CX*8), DI
	LEAQ   (DI)(CX*8), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

mv4loop:
	CMPQ AX, DX
	JGE  mv4tail
	// Four elements of each example, transposed in registers: Y9, Y6,
	// Y5, Y8 end up holding elements k, k+1, k+2, k+3 of all four.
	VMOVUPD     (SI)(AX*8), X5
	VINSERTF128 $1, (R12)(AX*8), Y5, Y5
	VMOVUPD     (R11)(AX*8), X6
	VINSERTF128 $1, (R13)(AX*8), Y6, Y6
	VMOVUPD     16(SI)(AX*8), X7
	VINSERTF128 $1, 16(R12)(AX*8), Y7, Y7
	VMOVUPD     16(R11)(AX*8), X8
	VINSERTF128 $1, 16(R13)(AX*8), Y8, Y8
	VUNPCKLPD   Y6, Y5, Y9
	VUNPCKHPD   Y6, Y5, Y6
	VUNPCKLPD   Y8, Y7, Y5
	VUNPCKHPD   Y8, Y7, Y8
	COL5(0, Y9)
	COL5(8, Y6)
	COL5(16, Y5)
	COL5(24, Y8)
	ADDQ        $4, AX
	JMP         mv4loop

mv4tail:
	CMPQ        AX, CX
	JGE         mv4bias
	VMOVSD      (SI)(AX*8), X5
	VMOVHPD     (R11)(AX*8), X5, X5
	VMOVSD      (R12)(AX*8), X6
	VMOVHPD     (R13)(AX*8), X6, X6
	VINSERTF128 $1, X6, Y5, Y5
	COL5(0, Y5)
	INCQ        AX
	JMP         mv4tail

mv4bias:
	MOVQ         b+64(FP), SI
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12
	VBROADCASTSD 24(SI), Y13
	VBROADCASTSD 32(SI), Y14
	VADDPD       Y10, Y0, Y0
	VADDPD       Y11, Y1, Y1
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y3, Y3
	VADDPD       Y14, Y4, Y4
	MOVQ         out+0(FP), DI
	MOVQ         stride+8(FP), R8
	SHLQ         $3, R8
	MOVQ         n+72(FP), CX
	STORE5(VMOVSD)
	CMPQ         CX, $2
	JLT          mv4done
	ADDQ         R8, DI
	STORE5(VMOVHPD)
	CMPQ         CX, $3
	JLT          mv4done
	ADDQ         R8, DI
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y2, X2
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y4, X4
	STORE5(VMOVSD)
	CMPQ         CX, $4
	JLT          mv4done
	ADDQ         R8, DI
	STORE5(VMOVHPD)

mv4done:
	VZEROUPPER
	RET

// ---- ProxStep: w ← w − η·(g + μ·(w − w⁰)) ----
//
// Register use: DI w, SI g, DX w⁰, AX the index, CX n, BX n rounded down
// to the lane count; register 0 holds η in every lane, 1 μ.

#define PROX(MOV, MUL, ADD, SUB, SZ, ETA, MU, W, G) \
	MOV (DI)(AX*SZ), W    \
	SUB (DX)(AX*SZ), W, G \
	MUL G, MU, G          \
	ADD (SI)(AX*SZ), G, G \
	MUL G, ETA, G         \
	SUB G, W, W           \
	MOV W, (DI)(AX*SZ)

// func proxStepF64(w, grad, w0 unsafe.Pointer, n int, eta, mu float64)
TEXT ·proxStepF64(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ w0+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD eta+32(FP), Y0
	VBROADCASTSD mu+40(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

proxf64loop:
	CMPQ AX, BX
	JGE  proxf64tail
	PROX(VMOVUPD, VMULPD, VADDPD, VSUBPD, 8, Y0, Y1, Y2, Y3)
	ADDQ $4, AX
	JMP  proxf64loop

proxf64tail:
	CMPQ AX, CX
	JGE  proxf64done
	PROX(VMOVSD, VMULSD, VADDSD, VSUBSD, 8, X0, X1, X2, X3)
	INCQ AX
	JMP  proxf64tail

proxf64done:
	VZEROUPPER
	RET

// func proxStepF32(w, grad, w0 unsafe.Pointer, n int, eta, mu float32)
TEXT ·proxStepF32(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ w0+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS eta+32(FP), Y0
	VBROADCASTSS mu+36(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

proxf32loop:
	CMPQ AX, BX
	JGE  proxf32tail
	PROX(VMOVUPS, VMULPS, VADDPS, VSUBPS, 4, Y0, Y1, Y2, Y3)
	ADDQ $8, AX
	JMP  proxf32loop

proxf32tail:
	CMPQ AX, CX
	JGE  proxf32done
	PROX(VMOVSS, VMULSS, VADDSS, VSUBSS, 4, X0, X1, X2, X3)
	INCQ AX
	JMP  proxf32tail

proxf32done:
	VZEROUPPER
	RET

// ---- The byte quantiser: MaxAbsDiff, QuantizeBytes, DequantizeBytes ----
//
// AVX2, float64 slices of one length n, a positive multiple of four.
// Register use: DI the destination, SI the source, DX the base, AX the
// index, CX n.

DATA quant<>+0(SB)/8, $0x9e3779b97f4a7c15  // γ, SplitMix64's increment
DATA quant<>+8(SB)/8, $0x3c6ef372fe94f82a  // 2γ
DATA quant<>+16(SB)/8, $0xdaa66d2c7ddf743f // 3γ
DATA quant<>+24(SB)/8, $0x78dde6e5fd29f054 // 4γ
DATA quant<>+32(SB)/8, $0xbf58476d1ce4e5b9 // mix's first multiplier
DATA quant<>+40(SB)/8, $0x94d049bb133111eb // mix's second multiplier
DATA quant<>+48(SB)/8, $0x3fe0000000000000 // 2⁻¹, i.e. 2⁵²·2⁻⁵³
DATA quant<>+56(SB)/8, $0x41e0000000000000 // 2³¹, i.e. 2⁸⁴·2⁻⁵³
DATA quant<>+64(SB)/8, $0x41e0000000100000 // 2³¹ + 2⁻¹
DATA quant<>+72(SB)/8, $0x3ff0000000000000 // 1
DATA quant<>+80(SB)/8, $0x7fffffffffffffff // all but the sign bit
DATA quant<>+88(SB)/8, $0x808080800c080400 // VPSHUFB: byte 0 of each dword
DATA quant<>+96(SB)/8, $0x8080808080808080
GLOBL quant<>(SB), RODATA|NOPTR, $104

// func maxAbsDiffF64(v, base []float64) float64
//
// The running maximum is VMAXPD's second source (Go's first operand),
// which it returns when the other is a NaN, as the Go loop's a > m skips
// one. No lane is ever a NaN or −0, so the folding order cannot show.
TEXT ·maxAbsDiffF64(SB), NOSPLIT, $0-56
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         base_base+24(FP), DX
	VBROADCASTSD quant<>+80(SB), Y2
	VXORPD       Y0, Y0, Y0
	XORQ         AX, AX

maxdiffloop:
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (DX)(AX*8), Y1, Y1
	VANDPD  Y2, Y1, Y1
	VMAXPD  Y0, Y1, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     maxdiffloop
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+48(FP)
	VZEROUPPER
	RET

// MUL64 multiplies A's four uint64 lanes by the constant in C's (CH holds
// it >> 32): lo(a)·lo(c) + ((hi(a)·lo(c) + lo(a)·hi(c)) << 32), mod 2⁶⁴.
#define MUL64(A, C, CH, T1, T2) \
	VPSRLQ   $32, A, T1 \
	VPMULUDQ C, T1, T1   \
	VPMULUDQ CH, A, T2   \
	VPADDQ   T2, T1, T1  \
	VPSLLQ   $32, T1, T1 \
	VPMULUDQ C, A, A     \
	VPADDQ   T1, A, A

// func quantizeBytesF64(dst []byte, v, base []float64, invUnit float64, s int, state uint64) uint64
//
// Four lanes holding state + γ·{1,2,3,4} and stepping by 4γ make
// frand.Source's draws, in order. Y12 holds the lanes, Y11 4γ, Y10/Y9 and
// Y8/Y7 mix's multipliers and their high halves, Y6 and Y5 2⁻¹ and 2³¹,
// Y15 invUnit, X14 and X13 s and −s as int32 lanes. Returns state + n·γ,
// the state of a Source that made the same n draws.
TEXT ·quantizeBytesF64(SB), NOSPLIT, $0-104
	MOVQ         dst_base+0(FP), DI
	MOVQ         v_base+24(FP), SI
	MOVQ         v_len+32(FP), CX
	MOVQ         base_base+48(FP), DX
	VBROADCASTSD invUnit+72(FP), Y15
	VPBROADCASTD s+80(FP), X14
	VPXOR        X13, X13, X13
	VPSUBD       X14, X13, X13
	VPBROADCASTQ state+88(FP), Y12
	VPADDQ       quant<>+0(SB), Y12, Y12
	VPBROADCASTQ quant<>+24(SB), Y11
	VPBROADCASTQ quant<>+32(SB), Y10
	VPSRLQ       $32, Y10, Y9
	VPBROADCASTQ quant<>+40(SB), Y8
	VPSRLQ       $32, Y8, Y7
	VPBROADCASTQ quant<>+48(SB), Y6
	VPBROADCASTQ quant<>+56(SB), Y5
	XORQ         AX, AX

quantloop:
	// z = mix(lanes); lanes += 4γ
	VPSRLQ $30, Y12, Y0
	VPXOR  Y12, Y0, Y0
	VPADDQ Y11, Y12, Y12
	MUL64(Y0, Y10, Y9, Y1, Y2)
	VPSRLQ $27, Y0, Y1
	VPXOR  Y1, Y0, Y0
	MUL64(Y0, Y8, Y7, Y1, Y2)
	VPSRLQ $31, Y0, Y1
	VPXOR  Y1, Y0, Y0
	// r = float64(z >> 11) / 2⁵³, exactly: the 53 bits split into a low
	// 32 under the exponent of 2⁵² and a high 21 under that of 2⁸⁴, both
	// scaled by 2⁻⁵³, and (hi − (2³¹ + 2⁻¹)) + lo has no rounding to do.
	VPSRLQ       $11, Y0, Y0
	VPSRLQ       $32, Y0, Y1
	VPBLENDD     $0xaa, Y6, Y0, Y0
	VPOR         Y5, Y1, Y1
	VBROADCASTSD quant<>+64(SB), Y2
	VSUBPD       Y2, Y1, Y1
	VADDPD       Y0, Y1, Y0
	// t = (v − base)·invUnit, f = floor(t), q = f + 1 where r < t − f
	VMOVUPD      (SI)(AX*8), Y3
	VSUBPD       (DX)(AX*8), Y3, Y3
	VMULPD       Y15, Y3, Y3
	VROUNDPD     $9, Y3, Y4
	VSUBPD       Y4, Y3, Y3
	VCMPPD       $1, Y3, Y0, Y0
	VBROADCASTSD quant<>+72(SB), Y2
	VANDPD       Y2, Y0, Y0
	VADDPD       Y0, Y4, Y4
	// int32 (a NaN or ±Inf becomes the minimum, as Go's int() makes it
	// on amd64), clamp to [−s, s], offset, one byte each
	VCVTTPD2DQY Y4, X4
	VPMAXSD     X13, X4, X4
	VPMINSD     X14, X4, X4
	VPADDD      X14, X4, X4
	VPSHUFB     quant<>+88(SB), X4, X4
	VMOVD       X4, (DI)(AX*1)
	ADDQ        $4, AX
	CMPQ        AX, CX
	JLT         quantloop
	// lane 0 is state + (n+1)·γ
	VMOVQ X12, AX
	SUBQ  quant<>+0(SB), AX
	MOVQ  AX, ret+96(FP)
	VZEROUPPER
	RET

// func dequantizeBytesF64(out []float64, q []byte, base []float64, unit float64, s int)
TEXT ·dequantizeBytesF64(SB), NOSPLIT, $0-88
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         q_base+24(FP), SI
	MOVQ         base_base+48(FP), DX
	VBROADCASTSD unit+72(FP), Y15
	VPBROADCASTD s+80(FP), X14
	XORQ         AX, AX

dequantloop:
	VPMOVZXBD (SI)(AX*1), X0
	VPSUBD    X14, X0, X0
	VCVTDQ2PD X0, Y0
	VMULPD    Y15, Y0, Y0
	VADDPD    (DX)(AX*8), Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       dequantloop
	VZEROUPPER
	RET

// ---- Normals: Box–Muller, Sqrt(−2·Log(a))·Cos(2π·b), four lanes ----
//
// AVX2, float64 slices of one length n, a positive multiple of four, with
// a in [2⁻⁵³, 1] and b in [0, 1) as frand.Source.Norm draws them: no
// zero, subnormal, negative, infinite or NaN a, and 2π·b below Cos's
// Payne–Hanek threshold, so neither function's special cases can arise.
// Log is math.Log's amd64 body (log_amd64.s), step for step; Cos is
// math.cos's Go body for 0 ≤ x < 2π, with both of its polynomials
// computed and one chosen per lane. Register use: DI dst, SI a, DX b, AX
// the index, CX n; Y15 the constant of the step at hand.

DATA bm<>+0(SB)/8, $0x000fffffffffffff   // the mantissa bits
DATA bm<>+8(SB)/8, $0x3fe0000000000000   // 0.5
DATA bm<>+16(SB)/8, $0x4330000000000000  // 2⁵², whose low mantissa bits then hold an integer
DATA bm<>+24(SB)/8, $0x43300000000003fe  // 2⁵² + 1022, the exponent bias minus one
DATA bm<>+32(SB)/8, $0x3fe6a09e667f3bcd  // √2/2
DATA bm<>+40(SB)/8, $0x3ff0000000000000  // 1
DATA bm<>+48(SB)/8, $0x4000000000000000  // 2
DATA bm<>+56(SB)/8, $0x3fe5555555555593  // L1
DATA bm<>+64(SB)/8, $0x3fd999999997fa04  // L2
DATA bm<>+72(SB)/8, $0x3fd2492494229359  // L3
DATA bm<>+80(SB)/8, $0x3fcc71c51d8e78af  // L4
DATA bm<>+88(SB)/8, $0x3fc7466496cb03de  // L5
DATA bm<>+96(SB)/8, $0x3fc39a09d078c69f  // L6
DATA bm<>+104(SB)/8, $0x3fc2f112df3e5244 // L7
DATA bm<>+112(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA bm<>+120(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
DATA bm<>+128(SB)/8, $0xc000000000000000 // −2
DATA bm<>+136(SB)/8, $0x401921fb54442d18 // 2π
DATA bm<>+144(SB)/8, $0x3ff45f306dc9c883 // 4/π
DATA bm<>+152(SB)/8, $0x3fe921fb40000000 // PI4A, π/4 in three parts
DATA bm<>+160(SB)/8, $0x3e64442d00000000 // PI4B
DATA bm<>+168(SB)/8, $0x3ce8469898cc5170 // PI4C
DATA bm<>+176(SB)/8, $0x3de5d8fd1fd19ccd // _sin[0]
DATA bm<>+184(SB)/8, $0xbe5ae5e5a9291f5d // _sin[1]
DATA bm<>+192(SB)/8, $0x3ec71de3567d48a1 // _sin[2]
DATA bm<>+200(SB)/8, $0xbf2a01a019bfdf03 // _sin[3]
DATA bm<>+208(SB)/8, $0x3f8111111110f7d0 // _sin[4]
DATA bm<>+216(SB)/8, $0xbfc5555555555548 // _sin[5]
DATA bm<>+224(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA bm<>+232(SB)/8, $0x3e21ee9d7b4e3f05 // _cos[1]
DATA bm<>+240(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA bm<>+248(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA bm<>+256(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA bm<>+264(SB)/8, $0x3fa555555555554b // _cos[5]
DATA bm<>+272(SB)/8, $0x0000000000000002 // 2, as an integer
DATA bm<>+280(SB)/8, $0x8000000000000000 // the sign bit
GLOBL bm<>(SB), RODATA|NOPTR, $288

// BM is the constant at byte offset OFF of the table, in every lane of Y15.
#define BM(OFF) VBROADCASTSD bm<>+OFF(SB), Y15

// HORNER is one step of a polynomial in X: ACC = ACC·X + the constant at OFF.
#define HORNER(X, OFF, ACC) \
	VMULPD X, ACC, ACC \
	BM(OFF)            \
	VADDPD Y15, ACC, ACC

// func boxMullerF64(dst, a, b []float64)
TEXT ·boxMullerF64(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX

bmloop:
	// Log(a). Frexp by the bits: f1 = a's mantissa under 0.5's exponent,
	// k = a's exponent − 1022, converted through 2⁵²'s mantissa.
	VMOVUPD (SI)(AX*8), Y0
	BM(0)
	VANDPD  Y15, Y0, Y1
	BM(8)
	VORPD   Y15, Y1, Y1
	VPSRLQ  $52, Y0, Y0
	BM(16)
	VPOR    Y15, Y0, Y0
	BM(24)
	VSUBPD  Y15, Y0, Y0
	// if !(√2/2 < f1) { k −= 1; f1 *= 2 }; f = f1 − 1
	BM(32)
	VCMPPD  $5, Y1, Y15, Y2
	BM(40)
	VANDPD  Y15, Y2, Y2
	VSUBPD  Y2, Y0, Y0
	VADDPD  Y15, Y2, Y2
	VMULPD  Y2, Y1, Y1
	VSUBPD  Y15, Y1, Y1
	// s = f/(2 + f), s2 = s·s, s4 = s2·s2
	BM(48)
	VADDPD  Y1, Y15, Y2
	VDIVPD  Y2, Y1, Y2
	VMULPD  Y2, Y2, Y3
	VMULPD  Y3, Y3, Y4
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))), t2 = s4·(L2 + s4·(L4 + s4·L6))
	VBROADCASTSD bm<>+104(SB), Y5
	HORNER(Y4, 88, Y5)
	HORNER(Y4, 72, Y5)
	HORNER(Y4, 56, Y5)
	VMULPD  Y5, Y3, Y3
	VBROADCASTSD bm<>+96(SB), Y5
	HORNER(Y4, 80, Y5)
	HORNER(Y4, 64, Y5)
	VMULPD  Y5, Y4, Y4
	// R = t1 + t2, hfsq = 0.5·f·f
	VADDPD  Y4, Y3, Y3
	BM(8)
	VMULPD  Y1, Y15, Y4
	VMULPD  Y1, Y4, Y4
	// k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f)
	VADDPD  Y4, Y3, Y3
	VMULPD  Y3, Y2, Y2
	BM(120)
	VMULPD  Y0, Y15, Y3
	VADDPD  Y3, Y2, Y2
	VSUBPD  Y2, Y4, Y4
	VSUBPD  Y1, Y4, Y4
	BM(112)
	VMULPD  Y15, Y0, Y0
	VSUBPD  Y4, Y0, Y0
	// the radius, Sqrt(−2·Log(a))
	BM(128)
	VMULPD  Y15, Y0, Y0
	VSQRTPD Y0, Y0

	// Cos(x), x = 2π·b. j = trunc(x·4/π), bumped to the next even
	// octant as y = 2·ceil(j/2); z = ((x − y·PI4A) − y·PI4B) − y·PI4C.
	VMOVUPD  (DX)(AX*8), Y1
	BM(136)
	VMULPD   Y15, Y1, Y1
	BM(144)
	VMULPD   Y15, Y1, Y2
	VROUNDPD $3, Y2, Y2
	BM(8)
	VMULPD   Y15, Y2, Y2
	VROUNDPD $2, Y2, Y2
	VADDPD   Y2, Y2, Y2
	BM(152)
	VMULPD   Y2, Y15, Y3
	VSUBPD   Y3, Y1, Y1
	BM(160)
	VMULPD   Y2, Y15, Y3
	VSUBPD   Y3, Y1, Y1
	BM(168)
	VMULPD   Y2, Y15, Y3
	VSUBPD   Y3, Y1, Y1
	// y + 2⁵² has y's octant in its low bits; zz = z·z
	BM(16)
	VADDPD   Y15, Y2, Y2
	VMULPD   Y1, Y1, Y3
	// sin: z + z·zz·((((((s0·zz + s1)·zz + s2)·zz + s3)·zz + s4)·zz + s5)
	VBROADCASTSD bm<>+176(SB), Y4
	HORNER(Y3, 184, Y4)
	HORNER(Y3, 192, Y4)
	HORNER(Y3, 200, Y4)
	HORNER(Y3, 208, Y4)
	HORNER(Y3, 216, Y4)
	VMULPD   Y3, Y1, Y5
	VMULPD   Y4, Y5, Y5
	VADDPD   Y5, Y1, Y5
	// cos: 1 − 0.5·zz + zz·zz·((((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5)
	VBROADCASTSD bm<>+224(SB), Y4
	HORNER(Y3, 232, Y4)
	HORNER(Y3, 240, Y4)
	HORNER(Y3, 248, Y4)
	HORNER(Y3, 256, Y4)
	HORNER(Y3, 264, Y4)
	VMULPD   Y3, Y3, Y6
	VMULPD   Y4, Y6, Y6
	BM(8)
	VMULPD   Y3, Y15, Y4
	BM(40)
	VSUBPD   Y4, Y15, Y4
	VADDPD   Y6, Y4, Y4
	// The sine where the octant's bit 1 is set (2 and 6), negated where
	// bit 2 of octant + 2 is (2 and 4): the bit moved to the sign.
	VPSLLQ       $62, Y2, Y6
	VBLENDVPD    Y6, Y5, Y4, Y4
	VPBROADCASTQ bm<>+272(SB), Y15
	VPADDQ       Y15, Y2, Y2
	VPSLLQ       $61, Y2, Y2
	BM(280)
	VANDPD       Y15, Y2, Y2
	VXORPD       Y2, Y4, Y4
	VMULPD       Y4, Y0, Y0
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          bmloop
	VZEROUPPER
	RET
