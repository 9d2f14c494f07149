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
