//go:build amd64 && gc

#include "textflag.h"

// The AVX2 rows of apply1QPairs. A YMM register holds two complex128
// amplitudes, [re, im, re, im]; Y0 takes two amplitudes of a qubit's 0 side
// and Y1 their partners on its 1 side, and each matrix shape writes the new
// pair into Y4 (0 side) and Y5 (1 side). Y8-Y15 hold the matrix entries
// broadcast to all four lanes: Re m00, Im m00, Re m01, Im m01, Re m10,
// Im m10, Re m11, Im m11.
//
// Each lane does the operations of the Go row, in its order, with no FMA,
// so the two are bit-identical. A complex product m·a is Go's
// (re = mr·x − mi·y, im = mr·y + mi·x): VMULPD of [mr] by [x, y], VMULPD of
// [mi] by the lane-swapped [y, x], then VADDSUBPD, which subtracts in the
// real lane and adds in the imaginary one.

// DIAG: the real diagonal, d0·a0 and d1·a1.
#define DIAG \
	VMULPD Y8, Y0, Y4; \
	VMULPD Y14, Y1, Y5

// REMAINDER: real diagonal entries, complex off-diagonal ones:
// d0·a0 + m01·a1 and m10·a0 + d1·a1.
#define REMAINDER \
	VPERMILPD $5, Y0, Y2; \
	VPERMILPD $5, Y1, Y3; \
	VMULPD    Y10, Y1, Y4; \
	VMULPD    Y11, Y3, Y5; \
	VADDSUBPD Y5, Y4, Y4; \
	VMULPD    Y8, Y0, Y5; \
	VADDPD    Y4, Y5, Y4; \
	VMULPD    Y12, Y0, Y5; \
	VMULPD    Y13, Y2, Y6; \
	VADDSUBPD Y6, Y5, Y5; \
	VMULPD    Y14, Y1, Y6; \
	VADDPD    Y6, Y5, Y5

// DENSE: m00·a0 + m01·a1 and m10·a0 + m11·a1.
#define DENSE \
	VPERMILPD $5, Y0, Y2; \
	VPERMILPD $5, Y1, Y3; \
	VMULPD    Y8, Y0, Y4; \
	VMULPD    Y9, Y2, Y5; \
	VADDSUBPD Y5, Y4, Y4; \
	VMULPD    Y10, Y1, Y5; \
	VMULPD    Y11, Y3, Y6; \
	VADDSUBPD Y6, Y5, Y5; \
	VADDPD    Y5, Y4, Y4; \
	VMULPD    Y12, Y0, Y5; \
	VMULPD    Y13, Y2, Y6; \
	VADDSUBPD Y6, Y5, Y5; \
	VMULPD    Y14, Y1, Y6; \
	VMULPD    Y15, Y3, Y7; \
	VADDSUBPD Y7, Y6, Y6; \
	VADDPD    Y6, Y5, Y5

// BLOCKS walks BX blocks: in each, the CX bytes of 0-side amplitudes from SI
// and their partners DX bytes on; the next block starts 2·DX bytes on.
#define BLOCKS(row, next, op) \
next: \
	MOVQ SI, R9; \
	LEAQ (SI)(CX*1), DI; \
row: \
	VMOVUPD (R9), Y0; \
	VMOVUPD (R9)(DX*1), Y1; \
	op; \
	VMOVUPD Y4, (R9); \
	VMOVUPD Y5, (R9)(DX*1); \
	ADDQ    $32, R9; \
	CMPQ    R9, DI; \
	JB      row; \
	LEAQ    (SI)(DX*2), SI; \
	DECQ    BX; \
	JNZ     next; \
	VZEROUPPER; \
	RET

// ADJACENT walks BX groups of two adjacent pairs (qubit 0: 0 side, 1 side,
// 0 side, 1 side) from SI, gathering the two 0 sides into Y0 and the two
// 1 sides into Y1 by 128-bit lane inserts, and scattering them back.
#define ADJACENT(row, op) \
row: \
	VMOVUPD      (SI), X0; \
	VINSERTF128  $1, 32(SI), Y0, Y0; \
	VMOVUPD      16(SI), X1; \
	VINSERTF128  $1, 48(SI), Y1, Y1; \
	op; \
	VMOVUPD      X4, (SI); \
	VEXTRACTF128 $1, Y4, 32(SI); \
	VMOVUPD      X5, 16(SI); \
	VEXTRACTF128 $1, Y5, 48(SI); \
	ADDQ         $64, SI; \
	DECQ         BX; \
	JNZ          row; \
	VZEROUPPER; \
	RET

// func rowsAVX2(z *complex128, bit, blocks, run int, m *Matrix2, shape rowShape)
TEXT ·rowsAVX2(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), SI
	MOVQ bit+8(FP), DX
	MOVQ blocks+16(FP), BX
	MOVQ run+24(FP), CX
	MOVQ m+32(FP), AX
	MOVQ shape+40(FP), R8
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	SHLQ $4, DX
	SHLQ $4, CX
	CMPQ DX, $16
	JEQ  adjacent
	CMPQ R8, $0
	JEQ  diagBlocks
	CMPQ R8, $1
	JEQ  remBlocks
	BLOCKS(denseRow, denseBlocks, DENSE)

diagBlocks:
	BLOCKS(diagRow, diagNext, DIAG)

remBlocks:
	BLOCKS(remRow, remNext, REMAINDER)

adjacent:
	CMPQ R8, $0
	JEQ  diagAdjacent
	CMPQ R8, $1
	JEQ  remAdjacent
	ADJACENT(denseAdjRow, DENSE)

diagAdjacent:
	ADJACENT(diagAdjRow, DIAG)

remAdjacent:
	ADJACENT(remAdjRow, REMAINDER)

// func czAVX2(z *complex128, blocks, stride, runs, gap, run int, odd bool)
//
// ApplyCZ's sign flip: Y7 holds the sign bit of every lane, or of the odd
// amplitude's two lanes only, and each register of a run is XORed with it.
// Runs of one register take a loop of their own.
TEXT ·czAVX2(SB), NOSPLIT, $0-49
	MOVQ     z+0(FP), SI
	MOVQ     blocks+8(FP), BX
	MOVQ     stride+16(FP), DX
	MOVQ     runs+24(FP), R10
	MOVQ     gap+32(FP), R12
	MOVQ     run+40(FP), CX
	MOVBQZX  odd+48(FP), AX
	SHLQ     $4, DX
	SHLQ     $4, R12
	SHLQ     $4, CX
	VPCMPEQQ Y7, Y7, Y7
	VPSLLQ   $63, Y7, Y7
	TESTQ    AX, AX
	JZ       czMasked
	VXORPD   Y6, Y6, Y6
	VBLENDPD $12, Y7, Y6, Y7

czMasked:
	CMPQ CX, $32
	JEQ  czSingle

czBlock:
	MOVQ SI, R9
	MOVQ R10, R11

czRun:
	MOVQ R9, R8
	LEAQ (R9)(CX*1), DI

czFlip:
	VXORPD  (R8), Y7, Y0
	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	CMPQ    R8, DI
	JB      czFlip
	ADDQ    R12, R9
	DECQ    R11
	JNZ     czRun
	ADDQ    DX, SI
	DECQ    BX
	JNZ     czBlock
	VZEROUPPER
	RET

czSingle:
	MOVQ SI, R9
	MOVQ R10, R11

czSingleRun:
	VXORPD  (R9), Y7, Y0
	VMOVUPD Y0, (R9)
	ADDQ    R12, R9
	DECQ    R11
	JNZ     czSingleRun
	ADDQ    DX, SI
	DECQ    BX
	JNZ     czSingle
	VZEROUPPER
	RET

// The sums of QubitDensity and of the sampler's probability pass. Each adds
// its terms into four lanes, term k into lane k mod 4, and combines the
// lanes as (s0+s1)+(s2+s3): the order of the Go passes goDensity, goProbs
// and goWeighted, whose bits they are. A term is what the Go pass computes,
// in its order: |a|² is VMULPD of [re, im] by itself, then VHADDPD adds
// re² + im²; x − y is computed as x + (−y), which IEEE 754 defines to be
// the same.

// DENSITY adds the terms of two pairs of a qubit, 0 sides A and 1 sides B,
// into accX ([P0, P1] of each pair) and accY ([Re C, Im C] of each pair).
// Y15 holds [0, sign, 0, sign].
#define DENSITY(A, B, accX, accY) \
	VMULPD    A, A, Y4; \
	VMULPD    B, B, Y5; \
	VHADDPD   Y5, Y4, Y4; \
	VADDPD    Y4, accX, accX; \
	VMULPD    B, A, Y4; \
	VPERMILPD $5, B, Y5; \
	VMULPD    Y5, A, Y5; \
	VXORPD    Y15, Y5, Y5; \
	VHADDPD   Y5, Y4, Y4; \
	VADDPD    Y4, accY, accY

// DENSITY4 adds the terms of four pairs: Y0/Y1 (pairs of lanes 0 and 1) and
// Y2/Y3 (lanes 2 and 3).
#define DENSITY4 \
	DENSITY(Y0, Y1, Y8, Y9); \
	DENSITY(Y2, Y3, Y10, Y11)

// func densityAVX2(z *complex128, n, bit int, d *[4]float64)
TEXT ·densityAVX2(SB), NOSPLIT, $0-32
	MOVQ     z+0(FP), SI
	MOVQ     n+8(FP), CX
	MOVQ     bit+16(FP), DX
	MOVQ     d+24(FP), AX
	SHLQ     $4, CX
	SHLQ     $4, DX
	LEAQ     (SI)(CX*1), DI
	VXORPD   Y8, Y8, Y8
	VXORPD   Y9, Y9, Y9
	VXORPD   Y10, Y10, Y10
	VXORPD   Y11, Y11, Y11
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15
	VXORPD   Y6, Y6, Y6
	VBLENDPD $10, Y15, Y6, Y15
	CMPQ     DX, $16
	JEQ      densityAdjacent
	CMPQ     DX, $32
	JEQ      densityQubit1

	// Blocks of bit pairs: the 0 sides from SI, their partners DX on.
densityBlock:
	MOVQ SI, R9
	LEAQ (SI)(DX*1), R8

densityRow:
	VMOVUPD (R9), Y0
	VMOVUPD (R9)(DX*1), Y1
	VMOVUPD 32(R9), Y2
	VMOVUPD 32(R9)(DX*1), Y3
	DENSITY4
	ADDQ    $64, R9
	CMPQ    R9, R8
	JB      densityRow
	LEAQ    (SI)(DX*2), SI
	CMPQ    SI, DI
	JB      densityBlock
	JMP     densityDone

	// Qubit 1: blocks of two pairs, one register a side; two blocks a step.
densityQubit1:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	DENSITY4
	ADDQ    $128, SI
	CMPQ    SI, DI
	JB      densityQubit1
	JMP     densityDone

	// Qubit 0: each register is one pair; gather two 0 sides and two 1 sides.
densityAdjacent:
	VMOVUPD     (SI), X0
	VINSERTF128 $1, 32(SI), Y0, Y0
	VMOVUPD     16(SI), X1
	VINSERTF128 $1, 48(SI), Y1, Y1
	VMOVUPD     64(SI), X2
	VINSERTF128 $1, 96(SI), Y2, Y2
	VMOVUPD     80(SI), X3
	VINSERTF128 $1, 112(SI), Y3, Y3
	DENSITY4
	ADDQ        $128, SI
	CMPQ        SI, DI
	JB          densityAdjacent

densityDone:
	VEXTRACTF128 $1, Y8, X4
	VADDPD       X4, X8, X8
	VEXTRACTF128 $1, Y10, X4
	VADDPD       X4, X10, X10
	VADDPD       X10, X8, X8
	VEXTRACTF128 $1, Y9, X4
	VADDPD       X4, X9, X9
	VEXTRACTF128 $1, Y11, X4
	VADDPD       X4, X11, X11
	VADDPD       X11, X9, X9
	VMOVUPD      X8, (AX)
	VMOVUPD      X9, 16(AX)
	VZEROUPPER
	RET

// PROBS4 loads four amplitudes from SI into Y0 as [|a0|², |a1|², |a2|²,
// |a3|²]: VHADDPD leaves them in the order 0, 2, 1, 3 and VPERMPD restores it.
#define PROBS4 \
	VMOVUPD (SI), Y0; \
	VMOVUPD 32(SI), Y1; \
	VMULPD  Y0, Y0, Y0; \
	VMULPD  Y1, Y1, Y1; \
	VHADDPD Y1, Y0, Y0; \
	VPERMPD $0xd8, Y0, Y0

// LANETOTAL leaves (s0+s1)+(s2+s3) of the lanes of Y8 in X0.
#define LANETOTAL \
	VEXTRACTF128 $1, Y8, X1; \
	VHADDPD      X1, X8, X0; \
	VHADDPD      X0, X0, X0

// func probsAVX2(z *complex128, probs *float64, n int) float64
TEXT ·probsAVX2(SB), NOSPLIT, $0-32
	MOVQ   z+0(FP), SI
	MOVQ   probs+8(FP), DI
	MOVQ   n+16(FP), CX
	LEAQ   (DI)(CX*8), R8
	VXORPD Y8, Y8, Y8

probsRow:
	PROBS4
	VMOVUPD Y0, (DI)
	VADDPD  Y0, Y8, Y8
	ADDQ    $64, SI
	ADDQ    $32, DI
	CMPQ    DI, R8
	JB      probsRow
	LANETOTAL
	VZEROUPPER
	MOVSD   X0, ret+24(FP)
	RET

// func weightedAVX2(z *complex128, probs, lo *float64, nlo int, hi *float64, nhi int) float64
TEXT ·weightedAVX2(SB), NOSPLIT, $0-56
	MOVQ   z+0(FP), SI
	MOVQ   probs+8(FP), DI
	MOVQ   lo+16(FP), R10
	MOVQ   nlo+24(FP), CX
	MOVQ   hi+32(FP), R11
	MOVQ   nhi+40(FP), BX
	VXORPD Y8, Y8, Y8

weightedRow:
	VBROADCASTSD (R11), Y7
	MOVQ         R10, DX
	LEAQ         (DI)(CX*8), R8

weightedCol:
	PROBS4
	VMULPD  (DX), Y7, Y2
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  Y0, Y8, Y8
	ADDQ    $64, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	CMPQ    DI, R8
	JB      weightedCol
	ADDQ    $8, R11
	DECQ    BX
	JNZ     weightedRow
	LANETOTAL
	VZEROUPPER
	MOVSD   X0, ret+48(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
