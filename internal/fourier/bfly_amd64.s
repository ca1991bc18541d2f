// AVX2 renditions of the radix-2/3/4 combine loops of combineLanes and of
// the 8-float64 row copies behind gatherStrided (permuted) and
// scatterStrided (fftlanes.go, slab.go). One lane row is Width = 8 float64
// = two ymm; every kernel walks the low half (byte offset 0) and the high
// half (offset 32) of each row with the same macro. The arithmetic is the
// Go loops' expression trees, operation for operation: VMULPD, VADDPD and
// VSUBPD only, no fused multiply-add, so every lane rounds exactly where
// the Go loop rounds and the output is the same bits (DESIGN.md section 5,
// "Vector kernels").
//
// Operand order: the Go assembler writes VSUBPD b, a, dst for dst = a - b.
//
// The callers (bfly_amd64.go) have checked every length; nothing here is
// bounds-checked.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// Each butterfly runs one stage over `blocks` consecutive stage blocks of
// r*m rows; within a block, sub-transform q is rows [q*m, (q+1)*m). Register
// plan shared by the three:
//
//	SI, DI   &dre[k*8], &dim[k*8]      row k of sub-transform 0
//	BX       m*64                      bytes from sub-transform q to q+1
//	R11      3*m*64                    (radix 4)
//	R8, R9   &twre[k], &twim[k]        twiddle column k of block 0
//	AX       m*8                       bytes from twiddle block q to q+1
//	R10      3*m*8                     (radix 4)
//	CX       rows left in this block
//	R12      blocks left
//	R13      m
// The argument loads are spelled out in each TEXT (not in SETUP) so that
// go vet's asmdecl, which does not expand macros, checks every FP offset.
#define SETUP \
	MOVQ CX, R13 \
	MOVQ CX, AX \
	SHLQ $3, AX \
	MOVQ CX, BX \
	SHLQ $6, BX

#define NEXTROW(loop) \
	ADDQ $64, SI \
	ADDQ $64, DI \
	ADDQ $8, R8  \
	ADDQ $8, R9  \
	DECQ CX      \
	JNZ  loop

// NEXTBLOCK(skip, loop) moves from the end of sub-transform 0 of one block
// (skip = (r-1)*m*64 bytes before the next block) to row 0 of the next and
// rewinds the twiddle column.
#define NEXTBLOCK(skip, loop) \
	ADDQ skip, SI \
	ADDQ skip, DI \
	SUBQ AX, R8   \
	SUBQ AX, R9   \
	MOVQ R13, CX  \
	DECQ R12      \
	JNZ  loop

// TWMUL(dr, di, wr, wi, or, oi) loads one half row (dr, di) of a block and
// multiplies it by that block's twiddle (wr, wi) of this k:
//
//	or = sr*wr - si*wi;  oi = sr*wi + si*wr
//
// Clobbers Y8-Y11.
#define TWMUL(dr, di, wr, wi, or, oi) \
	VBROADCASTSD wr, Y8  \
	VBROADCASTSD wi, Y9  \
	VMOVUPD dr, Y10      \
	VMOVUPD di, Y11      \
	VMULPD  Y8, Y10, or  \
	VMULPD  Y9, Y11, oi  \
	VSUBPD  oi, or, or   \
	VMULPD  Y9, Y10, oi  \
	VMULPD  Y8, Y11, Y10 \
	VADDPD  Y10, oi, oi

// Radix 2, one half row.
//
//	t = b*tw1
//	b = a - t;  a += t
#define BFLY2(off) \
	TWMUL(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y2, Y3) \
	VMOVUPD off(SI), Y0 \
	VMOVUPD off(DI), Y1 \
	VSUBPD  Y2, Y0, Y4  \
	VSUBPD  Y3, Y1, Y5  \
	VADDPD  Y2, Y0, Y0  \
	VADDPD  Y3, Y1, Y1  \
	VMOVUPD Y4, off(SI)(BX*1) \
	VMOVUPD Y5, off(DI)(BX*1) \
	VMOVUPD Y0, off(SI) \
	VMOVUPD Y1, off(DI)

// func bfly2AVX2(dre, dim, twre, twim *float64, m, blocks int)
TEXT ·bfly2AVX2(SB), NOSPLIT, $0-48
	MOVQ dre+0(FP), SI
	MOVQ dim+8(FP), DI
	MOVQ twre+16(FP), R8
	MOVQ twim+24(FP), R9
	MOVQ m+32(FP), CX
	MOVQ blocks+40(FP), R12
	SETUP
loop2:
	BFLY2(0)
	BFLY2(32)
	NEXTROW(loop2)
	NEXTBLOCK(BX, loop2)
	VZEROUPPER
	RET

// ROT3(OP, ua, ub, va, vb, a0, dst) stores
//
//	dst = a0 + (xr*ua OP xi*ub) + (yr*va OP yi*vb)
//
// with x in Y2/Y3 and y in Y4/Y5: a real output passes VSUBPD and each root
// as (re, im), an imaginary output VADDPD and each root as (im, re).
// Clobbers Y0, Y1, Y8.
#define ROT3(OP, ua, ub, va, vb, a0, dst) \
	VMULPD ua, Y2, Y0  \
	VMULPD ub, Y3, Y1  \
	OP     Y1, Y0, Y0  \
	VADDPD Y0, a0, Y0  \
	VMULPD va, Y4, Y1  \
	VMULPD vb, Y5, Y8  \
	OP     Y8, Y1, Y1  \
	VADDPD Y1, Y0, Y0  \
	VMOVUPD Y0, dst

// Radix 3, one half row. Y12-Y15 = w1r, w1i, w2r, w2i (the stage's roots).
//
//	x = b*tw1;  y = c*tw2
//	a = a0 + x + y
//	b = a0 + x*w1 + y*w2
//	c = a0 + x*w2 + y*w1
#define BFLY3(off) \
	TWMUL(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y2, Y3) \
	TWMUL(off(SI)(BX*2), off(DI)(BX*2), (R8)(AX*2), (R9)(AX*2), Y4, Y5) \
	VMOVUPD off(SI), Y6 \
	VMOVUPD off(DI), Y7 \
	VADDPD  Y2, Y6, Y0  \
	VADDPD  Y4, Y0, Y0  \
	VMOVUPD Y0, off(SI) \
	VADDPD  Y3, Y7, Y0  \
	VADDPD  Y5, Y0, Y0  \
	VMOVUPD Y0, off(DI) \
	ROT3(VSUBPD, Y12, Y13, Y14, Y15, Y6, off(SI)(BX*1)) \
	ROT3(VADDPD, Y13, Y12, Y15, Y14, Y7, off(DI)(BX*1)) \
	ROT3(VSUBPD, Y14, Y15, Y12, Y13, Y6, off(SI)(BX*2)) \
	ROT3(VADDPD, Y15, Y14, Y13, Y12, Y7, off(DI)(BX*2))

// func bfly3AVX2(dre, dim, twre, twim *float64, m, blocks int, w1r, w1i, w2r, w2i float64)
TEXT ·bfly3AVX2(SB), NOSPLIT, $0-80
	MOVQ dre+0(FP), SI
	MOVQ dim+8(FP), DI
	MOVQ twre+16(FP), R8
	MOVQ twim+24(FP), R9
	MOVQ m+32(FP), CX
	MOVQ blocks+40(FP), R12
	SETUP
	LEAQ (BX)(BX*1), R10
	VBROADCASTSD w1r+48(FP), Y12
	VBROADCASTSD w1i+56(FP), Y13
	VBROADCASTSD w2r+64(FP), Y14
	VBROADCASTSD w2i+72(FP), Y15
loop3:
	BFLY3(0)
	BFLY3(32)
	NEXTROW(loop3)
	NEXTBLOCK(R10, loop3)
	VZEROUPPER
	RET

// Radix 4, one half row. Y14, Y15 = jr, ji (the stage's root[1], ∓i up to
// rounding; multiplied out as tabulated, like the Go loop).
//
//	x = b*tw1;  y = c*tw2;  z = e*tw3
//	apc = a + y;  amc = a - y;  bpd = x + z;  bmd = (x - z)*j
//	a = apc + bpd;  b = amc + bmd;  c = apc - bpd;  e = amc - bmd
#define BFLY4(off) \
	TWMUL(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y0, Y1)   \
	TWMUL(off(SI)(BX*2), off(DI)(BX*2), (R8)(AX*2), (R9)(AX*2), Y2, Y3)   \
	TWMUL(off(SI)(R11*1), off(DI)(R11*1), (R8)(R10*1), (R9)(R10*1), Y4, Y5) \
	VMOVUPD off(SI), Y6 \
	VMOVUPD off(DI), Y7 \
	VADDPD  Y2, Y6, Y8  \
	VADDPD  Y3, Y7, Y9  \
	VSUBPD  Y2, Y6, Y6  \
	VSUBPD  Y3, Y7, Y7  \
	VADDPD  Y4, Y0, Y2  \
	VADDPD  Y5, Y1, Y3  \
	VSUBPD  Y4, Y0, Y0  \
	VSUBPD  Y5, Y1, Y1  \
	VMULPD  Y14, Y0, Y4 \
	VMULPD  Y15, Y1, Y5 \
	VSUBPD  Y5, Y4, Y4  \
	VMULPD  Y15, Y0, Y5 \
	VMULPD  Y14, Y1, Y0 \
	VADDPD  Y0, Y5, Y5  \
	VADDPD  Y2, Y8, Y0  \
	VMOVUPD Y0, off(SI) \
	VADDPD  Y3, Y9, Y0  \
	VMOVUPD Y0, off(DI) \
	VADDPD  Y4, Y6, Y0  \
	VMOVUPD Y0, off(SI)(BX*1) \
	VADDPD  Y5, Y7, Y0  \
	VMOVUPD Y0, off(DI)(BX*1) \
	VSUBPD  Y2, Y8, Y0  \
	VMOVUPD Y0, off(SI)(BX*2) \
	VSUBPD  Y3, Y9, Y0  \
	VMOVUPD Y0, off(DI)(BX*2) \
	VSUBPD  Y4, Y6, Y0  \
	VMOVUPD Y0, off(SI)(R11*1) \
	VSUBPD  Y5, Y7, Y0  \
	VMOVUPD Y0, off(DI)(R11*1)

// func bfly4AVX2(dre, dim, twre, twim *float64, m, blocks int, jr, ji float64)
TEXT ·bfly4AVX2(SB), NOSPLIT, $0-64
	MOVQ dre+0(FP), SI
	MOVQ dim+8(FP), DI
	MOVQ twre+16(FP), R8
	MOVQ twim+24(FP), R9
	MOVQ m+32(FP), CX
	MOVQ blocks+40(FP), R12
	SETUP
	LEAQ (AX)(AX*2), R10
	LEAQ (BX)(BX*2), R11
	VBROADCASTSD jr+48(FP), Y14
	VBROADCASTSD ji+56(FP), Y15
loop4:
	BFLY4(0)
	BFLY4(32)
	NEXTROW(loop4)
	NEXTBLOCK(R11, loop4)
	VZEROUPPER
	RET

// func scatterRows8AVX2(dre, dim, sre, sim *float64, n, stride int)
//
// Copies n contiguous rows of 8 float64 in each of the re and im arrays;
// row k is written at d + k*stride (stride in elements).
TEXT ·scatterRows8AVX2(SB), NOSPLIT, $0-48
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), R8
	MOVQ sre+16(FP), SI
	MOVQ sim+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ stride+40(FP), AX
	SHLQ $3, AX
scatterloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, 32(R8)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ AX, DI
	ADDQ AX, R8
	DECQ CX
	JNZ  scatterloop
	VZEROUPPER
	RET

// func gatherRows8AVX2(dre, dim, sre, sim *float64, perm *int, n, stride int)
//
// Fills n contiguous rows of 8 float64 in each of the re and im arrays; row
// k is read at s + perm[k]*stride (stride in elements).
TEXT ·gatherRows8AVX2(SB), NOSPLIT, $0-56
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), R8
	MOVQ sre+16(FP), SI
	MOVQ sim+24(FP), R9
	MOVQ perm+32(FP), DX
	MOVQ n+40(FP), CX
	MOVQ stride+48(FP), BX
	SHLQ $3, BX
gatherloop:
	MOVQ    (DX), AX
	IMULQ   BX, AX
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD (R9)(AX*1), Y2
	VMOVUPD 32(R9)(AX*1), Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, 32(R8)
	ADDQ $8, DX
	ADDQ $64, DI
	ADDQ $64, R8
	DECQ CX
	JNZ  gatherloop
	VZEROUPPER
	RET
