// AVX2 + FMA renditions of the radix-2/3/4/7 combine loops of combineLanes,
// of the 8-float64 row copies behind gatherStrided (permuted) and
// scatterStrided and their lane-by-lane forms behind gatherLanes and
// scatterLanes, of addNorm2Strided's squared moduli, of the z pass's
// transposing gather and scatter, and of pairPass's pair products and
// accumulations (fftlanes.go, slab.go). One lane row is Width = 8 float64
// = two ymm; every kernel walks the low half (byte offset 0) and the high
// half (offset 32) of each row with the same macro. The arithmetic is the
// Go loops' expression trees, operation for operation: each math.FMA is one
// VFMADD231PD (VFNMADD231PD where its first factor is negated, VFMSUB231PD
// where its addend is), every other product a VMULPD, every add a VADDPD or
// VSUBPD, so every lane rounds exactly where the Go loop rounds and the
// output is the same bits (DESIGN.md section 5, "Vector kernels"). Like the
// Go loops, the k = 0 row of every stage block takes its inputs as loaded:
// its twiddles are exactly 1 + 0i.
//
// Operand order: the Go assembler writes VSUBPD b, a, dst for dst = a - b,
// and VFMADD231PD b, a, dst for dst = a*b + dst.
//
// The callers (bfly_amd64.go) have checked every length; nothing here is
// bounds-checked.

#include "textflag.h"

// Each butterfly runs one stage over `blocks` consecutive stage blocks of
// r*m rows; within a block, sub-transform q is rows [q*m, (q+1)*m), and row
// k = 0 runs the body with LOAD, rows k >= 1 with TWMUL. Register plan
// shared by the four:
//
//	SI, DI   &dre[k*8], &dim[k*8]      row k of sub-transform 0
//	BX       m*64                      bytes from sub-transform q to q+1
//	R11, R14 3*m*64, 5*m*64            (radix 4, 7; radix 7)
//	R8, R9   &twre[k], &twim[k]        twiddle column k of block 0
//	AX       m*8                       bytes from twiddle block q to q+1
//	R10, DX  3*m*8, 5*m*8              (radix 4, 7; radix 7)
//	CX       rows left in this block
//	R12      blocks left
//	R13      m
// Radix 4 uses DX and R14 instead for the rows X[1] and X[3] go to. The
// argument loads are spelled out in each TEXT (not in SETUP) so that
// go vet's asmdecl, which does not expand macros, checks every FP offset.
#define SETUP \
	MOVQ CX, R13 \
	MOVQ CX, AX \
	SHLQ $3, AX \
	MOVQ CX, BX \
	SHLQ $6, BX

// NEXTROW steps to row k+1 and leaves ZF set when the block is done.
#define NEXTROW \
	ADDQ $64, SI \
	ADDQ $64, DI \
	ADDQ $8, R8  \
	ADDQ $8, R9  \
	DECQ CX

// NEXTBLOCK(skip, loop) moves from the end of sub-transform 0 of one block
// (skip = (r-1)*m*64 bytes before the next block, an index*scale operand)
// to row 0 of the next and rewinds the twiddle column.
#define NEXTBLOCK(skip, loop) \
	LEAQ (SI)(skip), SI \
	LEAQ (DI)(skip), DI \
	SUBQ AX, R8   \
	SUBQ AX, R9   \
	MOVQ R13, CX  \
	DECQ R12      \
	JNZ  loop

// TWMUL(dr, di, wr, wi, or, oi) loads one half row (dr, di) of a block and
// multiplies it by that block's twiddle (wr, wi) of this k, as twiddle
// rounds it:
//
//	or = fma(sr, wr, -(si*wi));  oi = fma(sr, wi, si*wr)
//
// Clobbers Y8-Y11.
#define TWMUL(dr, di, wr, wi, or, oi) \
	VBROADCASTSD wr, Y8     \
	VBROADCASTSD wi, Y9     \
	VMOVUPD dr, Y10         \
	VMOVUPD di, Y11         \
	VMULPD  Y9, Y11, or     \
	VFMSUB231PD Y8, Y10, or \
	VMULPD  Y8, Y11, oi     \
	VFMADD231PD Y9, Y10, oi

// LOAD is TWMUL for k = 0: the half row as it is.
#define LOAD(dr, di, wr, wi, or, oi) \
	VMOVUPD dr, or \
	VMOVUPD di, oi

// Radix 2, one half row; LD is LOAD or TWMUL.
//
//	t = b*tw1
//	b = a - t;  a += t
#define BFLY2(off, LD) \
	LD(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y2, Y3) \
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
block2:
	BFLY2(0, LOAD)
	BFLY2(32, LOAD)
	NEXTROW
	JZ   next2
row2:
	BFLY2(0, TWMUL)
	BFLY2(32, TWMUL)
	NEXTROW
	JNZ  row2
next2:
	NEXTBLOCK(BX*1, block2)
	VZEROUPPER
	RET

// Radix 3, one half row, in the symmetric form; Y12, Y13 = c1, n1 (the
// stage's root[1]).
//
//	t1 = b*tw1;  t2 = c*tw2;  s = t1 + t2;  d = t1 - t2
//	a = a0 + s;  e = fma(c1, s, a0)
//	b = (fma(-n1, d_im, e_re), fma(n1, d_re, e_im))
//	c = (fma(n1, d_im, e_re), fma(-n1, d_re, e_im))
#define BFLY3(off, LD) \
	LD(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y2, Y3) \
	LD(off(SI)(BX*2), off(DI)(BX*2), (R8)(AX*2), (R9)(AX*2), Y4, Y5) \
	VADDPD  Y4, Y2, Y0         \
	VADDPD  Y5, Y3, Y1         \
	VSUBPD  Y4, Y2, Y2         \
	VSUBPD  Y5, Y3, Y3         \
	VMOVUPD off(SI), Y6        \
	VMOVUPD off(DI), Y7        \
	VADDPD  Y0, Y6, Y4         \
	VMOVUPD Y4, off(SI)        \
	VADDPD  Y1, Y7, Y5         \
	VMOVUPD Y5, off(DI)        \
	VFMADD231PD  Y12, Y0, Y6   \
	VFMADD231PD  Y12, Y1, Y7   \
	VMOVAPD Y6, Y4             \
	VFNMADD231PD Y13, Y3, Y4   \
	VMOVUPD Y4, off(SI)(BX*1)  \
	VFMADD231PD  Y13, Y3, Y6   \
	VMOVUPD Y6, off(SI)(BX*2)  \
	VMOVAPD Y7, Y5             \
	VFMADD231PD  Y13, Y2, Y5   \
	VMOVUPD Y5, off(DI)(BX*1)  \
	VFNMADD231PD Y13, Y2, Y7   \
	VMOVUPD Y7, off(DI)(BX*2)

// func bfly3AVX2(dre, dim, twre, twim *float64, m, blocks int, c1, n1 float64)
TEXT ·bfly3AVX2(SB), NOSPLIT, $0-64
	MOVQ dre+0(FP), SI
	MOVQ dim+8(FP), DI
	MOVQ twre+16(FP), R8
	MOVQ twim+24(FP), R9
	MOVQ m+32(FP), CX
	MOVQ blocks+40(FP), R12
	SETUP
	VBROADCASTSD c1+48(FP), Y12
	VBROADCASTSD n1+56(FP), Y13
block3:
	BFLY3(0, LOAD)
	BFLY3(32, LOAD)
	NEXTROW
	JZ   next3
row3:
	BFLY3(0, TWMUL)
	BFLY3(32, TWMUL)
	NEXTROW
	JNZ  row3
next3:
	NEXTBLOCK(BX*2, block3)
	VZEROUPPER
	RET

// Radix 4, one half row. root[1] is exactly -i forward, so (x - z)*root[1]
// is a swap of parts and a sign: DX and R14 are the byte offsets of the
// rows X[1] and X[3] go to (m*64 and 3*m*64, exchanged by the inverse).
//
//	x = b*tw1;  y = c*tw2;  z = e*tw3
//	apc = a + y;  amc = a - y;  bpd = x + z;  d = x - z
//	a = apc + bpd;  c = apc - bpd
//	X[1] = (amc_re + d_im, amc_im - d_re);  X[3] = (amc_re - d_im, amc_im + d_re)
#define BFLY4(off, LD) \
	LD(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y0, Y1)   \
	LD(off(SI)(BX*2), off(DI)(BX*2), (R8)(AX*2), (R9)(AX*2), Y2, Y3)   \
	LD(off(SI)(R11*1), off(DI)(R11*1), (R8)(R10*1), (R9)(R10*1), Y4, Y5) \
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
	VADDPD  Y2, Y8, Y4  \
	VMOVUPD Y4, off(SI) \
	VADDPD  Y3, Y9, Y4  \
	VMOVUPD Y4, off(DI) \
	VSUBPD  Y2, Y8, Y4  \
	VMOVUPD Y4, off(SI)(BX*2) \
	VSUBPD  Y3, Y9, Y4  \
	VMOVUPD Y4, off(DI)(BX*2) \
	VADDPD  Y1, Y6, Y4  \
	VMOVUPD Y4, off(SI)(DX*1) \
	VSUBPD  Y0, Y7, Y4  \
	VMOVUPD Y4, off(DI)(DX*1) \
	VSUBPD  Y1, Y6, Y4  \
	VMOVUPD Y4, off(SI)(R14*1) \
	VADDPD  Y0, Y7, Y4  \
	VMOVUPD Y4, off(DI)(R14*1)

// func bfly4AVX2(dre, dim, twre, twim *float64, m, blocks int, inverse bool)
TEXT ·bfly4AVX2(SB), NOSPLIT, $0-49
	MOVQ dre+0(FP), SI
	MOVQ dim+8(FP), DI
	MOVQ twre+16(FP), R8
	MOVQ twim+24(FP), R9
	MOVQ m+32(FP), CX
	MOVQ blocks+40(FP), R12
	SETUP
	LEAQ (AX)(AX*2), R10
	LEAQ (BX)(BX*2), R11
	MOVQ BX, DX
	MOVQ R11, R14
	CMPB inverse+48(FP), $0
	JEQ  block4
	XCHGQ DX, R14
block4:
	BFLY4(0, LOAD)
	BFLY4(32, LOAD)
	NEXTROW
	JZ   next4
row4:
	BFLY4(0, TWMUL)
	BFLY4(32, TWMUL)
	NEXTROW
	JNZ  row4
next4:
	NEXTBLOCK(R11*1, block4)
	VZEROUPPER
	RET

// The radix-7 butterfly takes combineLanes' symmetric form. Per half row,
// every twiddled pair (rows q and 7-q) is folded into s = t_q + t_{7-q} and
// d = t_q - t_{7-q}, which stay in registers; each output pair X[p], X[7-p]
// is then formed one part (real, imaginary) at a time from the tabulated
// roots c + i*n, broadcast from the argument frame at each use, and row 0 -
// which every part reads as a - is written last.

// SUMDIFF(sr, si, dr, di) folds the twiddled pair u (row q, Y0/Y1) and
// v (row 7-q, Y2/Y3) into s = u + v and d = u - v.
#define SUMDIFF(sr, si, dr, di) \
	VADDPD Y2, Y0, sr \
	VADDPD Y3, Y1, si \
	VSUBPD Y2, Y0, dr \
	VSUBPD Y3, Y1, di

// MACC(c, x, acc): acc = fma(c, x, acc). Clobbers Y3.
#define MACC(c, x, acc) \
	VBROADCASTSD c, Y3 \
	VFMADD231PD x, Y3, acc

// PAIR7(a, c1, x1, c2, x2, c3, x3, n1, y1, n2, y2, n3, y3, P, M, dp, dm)
// stores one part of an output pair: the real part takes x = s_re,
// y = d_im, P = VSUBPD, M = VADDPD; the imaginary part x = s_im, y = d_re,
// P = VADDPD, M = VSUBPD.
//
//	e = macc3(a, c1, x1, c2, x2, c3, x3);  o = macc2(n1*y1, n2, y2, n3, y3)
//	dp = e P o;  dm = e M o
//
// Clobbers Y0-Y3.
#define PAIR7(a, c1, x1, c2, x2, c3, x3, n1, y1, n2, y2, n3, y3, P, M, dp, dm) \
	VMOVUPD a, Y0       \
	MACC(c1, x1, Y0)    \
	MACC(c2, x2, Y0)    \
	MACC(c3, x3, Y0)    \
	VBROADCASTSD n1, Y3 \
	VMULPD y1, Y3, Y1   \
	MACC(n2, y2, Y1)    \
	MACC(n3, y3, Y1)    \
	P Y1, Y0, Y2        \
	VMOVUPD Y2, dp      \
	M Y1, Y0, Y2        \
	VMOVUPD Y2, dm

// Radix 7, one half row; c_j, n_j = rore[j], roim[j]. s1/d1 live in Y4-Y7,
// s2/d2 in Y12-Y15 and s3/d3 in Y8-Y11 (TWMUL's scratch, free once the
// last pair is folded).
//
//	X[1], X[6] = a + c1*s1 + c2*s2 + c3*s3 ± i*(n1*d1 + n2*d2 + n3*d3)
//	X[2], X[5] = a + c2*s1 + c4*s2 + c6*s3 ± i*(n2*d1 + n4*d2 + n6*d3)
//	X[3], X[4] = a + c3*s1 + c6*s2 + c2*s3 ± i*(n3*d1 + n6*d2 + n2*d3)
//	X[0]       = a + s1 + s2 + s3
#define BFLY7(off, LD, c1, c2, c3, c4, c6, n1, n2, n3, n4, n6) \
	LD(off(SI)(BX*1), off(DI)(BX*1), (R8)(AX*1), (R9)(AX*1), Y0, Y1)     \
	LD(off(SI)(R11*2), off(DI)(R11*2), (R8)(R10*2), (R9)(R10*2), Y2, Y3) \
	SUMDIFF(Y4, Y5, Y6, Y7)                                              \
	LD(off(SI)(BX*2), off(DI)(BX*2), (R8)(AX*2), (R9)(AX*2), Y0, Y1)     \
	LD(off(SI)(R14*1), off(DI)(R14*1), (R8)(DX*1), (R9)(DX*1), Y2, Y3)   \
	SUMDIFF(Y12, Y13, Y14, Y15)                                          \
	LD(off(SI)(R11*1), off(DI)(R11*1), (R8)(R10*1), (R9)(R10*1), Y0, Y1) \
	LD(off(SI)(BX*4), off(DI)(BX*4), (R8)(AX*4), (R9)(AX*4), Y2, Y3)     \
	SUMDIFF(Y8, Y9, Y10, Y11)                                            \
	PAIR7(off(SI), c1, Y4, c2, Y12, c3, Y8, n1, Y7, n2, Y15, n3, Y11, VSUBPD, VADDPD, off(SI)(BX*1), off(SI)(R11*2)) \
	PAIR7(off(DI), c1, Y5, c2, Y13, c3, Y9, n1, Y6, n2, Y14, n3, Y10, VADDPD, VSUBPD, off(DI)(BX*1), off(DI)(R11*2)) \
	PAIR7(off(SI), c2, Y4, c4, Y12, c6, Y8, n2, Y7, n4, Y15, n6, Y11, VSUBPD, VADDPD, off(SI)(BX*2), off(SI)(R14*1)) \
	PAIR7(off(DI), c2, Y5, c4, Y13, c6, Y9, n2, Y6, n4, Y14, n6, Y10, VADDPD, VSUBPD, off(DI)(BX*2), off(DI)(R14*1)) \
	PAIR7(off(SI), c3, Y4, c6, Y12, c2, Y8, n3, Y7, n6, Y15, n2, Y11, VSUBPD, VADDPD, off(SI)(R11*1), off(SI)(BX*4)) \
	PAIR7(off(DI), c3, Y5, c6, Y13, c2, Y9, n3, Y6, n6, Y14, n2, Y10, VADDPD, VSUBPD, off(DI)(R11*1), off(DI)(BX*4)) \
	VADDPD  off(SI), Y4, Y0 \
	VADDPD  Y12, Y0, Y0     \
	VADDPD  Y8, Y0, Y0      \
	VMOVUPD Y0, off(SI)     \
	VADDPD  off(DI), Y5, Y0 \
	VADDPD  Y13, Y0, Y0     \
	VADDPD  Y9, Y0, Y0      \
	VMOVUPD Y0, off(DI)

// func bfly7AVX2(dre, dim, twre, twim *float64, m, blocks int, c1, c2, c3, c4, c6, n1, n2, n3, n4, n6 float64)
TEXT ·bfly7AVX2(SB), NOSPLIT, $0-128
	MOVQ dre+0(FP), SI
	MOVQ dim+8(FP), DI
	MOVQ twre+16(FP), R8
	MOVQ twim+24(FP), R9
	MOVQ m+32(FP), CX
	MOVQ blocks+40(FP), R12
	SETUP
	LEAQ (AX)(AX*2), R10
	LEAQ (BX)(BX*2), R11
	LEAQ (AX)(AX*4), DX
	LEAQ (BX)(BX*4), R14
block7:
	BFLY7(0, LOAD, c1+48(FP), c2+56(FP), c3+64(FP), c4+72(FP), c6+80(FP), n1+88(FP), n2+96(FP), n3+104(FP), n4+112(FP), n6+120(FP))
	BFLY7(32, LOAD, c1+48(FP), c2+56(FP), c3+64(FP), c4+72(FP), c6+80(FP), n1+88(FP), n2+96(FP), n3+104(FP), n4+112(FP), n6+120(FP))
	NEXTROW
	JZ   next7
row7:
	BFLY7(0, TWMUL, c1+48(FP), c2+56(FP), c3+64(FP), c4+72(FP), c6+80(FP), n1+88(FP), n2+96(FP), n3+104(FP), n4+112(FP), n6+120(FP))
	BFLY7(32, TWMUL, c1+48(FP), c2+56(FP), c3+64(FP), c4+72(FP), c6+80(FP), n1+88(FP), n2+96(FP), n3+104(FP), n4+112(FP), n6+120(FP))
	NEXTROW
	JNZ  row7
next7:
	NEXTBLOCK(R11*2, block7)
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

// func gatherLanes8AVX2(dre, dim, sre, sim *float64, bases, perm *int, n, stride int)
//
// gatherRows8AVX2 for lanes that need not be consecutive: row k, lane l is
// read at s + bases[l] + perm[k]*stride (elements), four lanes per
// VGATHERQPD (Y4, Y5: the bases; Y7: an all-ones mask, which each gather
// clears in its copy Y6).
#define LGATHER(s, idx, y) \
	VMOVAPD Y7, Y6 \
	VGATHERQPD Y6, (s)(idx*8), y

TEXT ·gatherLanes8AVX2(SB), NOSPLIT, $0-64
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), R8
	MOVQ sre+16(FP), SI
	MOVQ sim+24(FP), R9
	MOVQ bases+32(FP), AX
	VMOVDQU (AX), Y4
	VMOVDQU 32(AX), Y5
	MOVQ perm+40(FP), DX
	MOVQ n+48(FP), CX
	MOVQ stride+56(FP), BX
	SHLQ $3, BX
	VPCMPEQQ Y7, Y7, Y7
lgatherloop:
	MOVQ  (DX), AX
	IMULQ BX, AX
	LEAQ  (SI)(AX*1), R10
	LEAQ  (R9)(AX*1), R11
	LGATHER(R10, Y4, Y0)
	LGATHER(R10, Y5, Y1)
	LGATHER(R11, Y4, Y2)
	LGATHER(R11, Y5, Y3)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, 32(R8)
	ADDQ $8, DX
	ADDQ $64, DI
	ADDQ $64, R8
	DECQ CX
	JNZ  lgatherloop
	VZEROUPPER
	RET

// func scatterLanes8AVX2(dre, dim, sre, sim *float64, bases *int, n, stride int)
//
// scatterRows8AVX2 for lanes that need not be consecutive: row k, lane l
// is written at d + bases[l] + k*stride (elements), one scalar store per
// value. LHALF(h) stores the half row at byte h of block row SI, R9 (lanes
// h/8 to h/8+3) through LSTORE, which stores lane i/8's re and im at its
// base in the rows DI, R8.
#define LSTORE(i, OP, x, y) \
	MOVQ i(AX), R10     \
	OP   x, (DI)(R10*8) \
	OP   y, (R8)(R10*8)

#define LHALF(h) \
	VMOVUPD h(SI), Y0            \
	VMOVUPD h(R9), Y1            \
	VEXTRACTF128 $1, Y0, X2      \
	VEXTRACTF128 $1, Y1, X3      \
	LSTORE(h, VMOVSD, X0, X1)    \
	LSTORE(h+8, VMOVHPD, X0, X1) \
	LSTORE(h+16, VMOVSD, X2, X3) \
	LSTORE(h+24, VMOVHPD, X2, X3)

TEXT ·scatterLanes8AVX2(SB), NOSPLIT, $0-56
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), R8
	MOVQ sre+16(FP), SI
	MOVQ sim+24(FP), R9
	MOVQ bases+32(FP), AX
	MOVQ n+40(FP), CX
	MOVQ stride+48(FP), BX
	SHLQ $3, BX
lscatterloop:
	LHALF(0)
	LHALF(32)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ BX, DI
	ADDQ BX, R8
	DECQ CX
	JNZ  lscatterloop
	VZEROUPPER
	RET

// func addNorm2Rows8AVX2(acc, sre, sim *float64, n, stride int)
//
// Adds the squared moduli of n contiguous rows of 8 complex values, split
// re/im, to acc: row k at acc + k*stride (stride in elements) takes
// re*re + im*im, two products and two adds as the Go loop rounds them.
TEXT ·addNorm2Rows8AVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ sre+8(FP), SI
	MOVQ sim+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ stride+32(FP), AX
	SHLQ $3, AX
norm2loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VMULPD  Y3, Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ AX, DI
	DECQ CX
	JNZ  norm2loop
	VZEROUPPER
	RET

// The z-row transposes between a lane block (row k, lane l at byte 64k +
// 8l) and Width z-rows of nz >= 4 points, lane l's at element rows[l]: the
// z pass's gather and scatter of any eight rows, and the pair kernels'
// moves to and from their scratch w (rows[l] = l*nz).

// NEXT4(loop, done) steps BX to the next chunk, or back to end at nz.
#define NEXT4(loop, done) \
	ADDQ $32, BX           \
	SUBQ $4, CX            \
	JZ   done              \
	CMPQ CX, $4            \
	JGE  loop              \
	LEAQ -32(BX)(CX*8), BX \
	MOVQ $4, CX            \
	JMP  loop              \
done:

// XPOSE(s0, s1, s2, s3) loads four ymm into Y0-Y3 and transposes them as
// a 4x4 block. Clobbers Y8-Y11.
#define XPOSE(s0, s1, s2, s3) \
	VMOVUPD s0, Y0                \
	VMOVUPD s1, Y1                \
	VMOVUPD s2, Y2                \
	VMOVUPD s3, Y3                \
	VUNPCKLPD Y1, Y0, Y8          \
	VUNPCKHPD Y1, Y0, Y9          \
	VUNPCKLPD Y3, Y2, Y10         \
	VUNPCKHPD Y3, Y2, Y11         \
	VPERM2F128 $0x20, Y10, Y8, Y0 \
	VPERM2F128 $0x20, Y11, Y9, Y1 \
	VPERM2F128 $0x31, Y10, Y8, Y2 \
	VPERM2F128 $0x31, Y11, Y9, Y3

// ZLANES(h) sets AX, R8, R9, R13 to the byte offsets of point j (BX = 8j)
// of lanes h/8 to h/8+3 (rows table DX) in a grid half.
#define ZLANES(h) \
	MOVQ h(DX), AX         \
	LEAQ (BX)(AX*8), AX    \
	MOVQ h+8(DX), R8       \
	LEAQ (BX)(R8*8), R8    \
	MOVQ h+16(DX), R9      \
	LEAQ (BX)(R9*8), R9    \
	MOVQ h+24(DX), R13     \
	LEAQ (BX)(R13*8), R13

// FROMW(h, b, g) moves those points of the grid half g to block rows
// zinv[j..j+3] (R10) at byte h of b; TOW(h, b, g), rows j..j+3 back.
#define FROMW(h, b, g) \
	XPOSE((g)(AX*1), (g)(R8*1), (g)(R9*1), (g)(R13*1)) \
	ZROW(0, h, b, Y0)  \
	ZROW(8, h, b, Y1)  \
	ZROW(16, h, b, Y2) \
	ZROW(24, h, b, Y3)

#define ZROW(i, h, b, y) \
	MOVQ i(R10)(BX*1), R14 \
	SHLQ $6, R14           \
	VMOVUPD y, h(b)(R14*1)

#define TOW(h, b, g) \
	XPOSE(h(b)(BX*8), h+64(b)(BX*8), h+128(b)(BX*8), h+192(b)(BX*8)) \
	VMOVUPD Y0, (g)(AX*1) \
	VMOVUPD Y1, (g)(R8*1) \
	VMOVUPD Y2, (g)(R9*1) \
	VMOVUPD Y3, (g)(R13*1)

// XCHUNKS(X, loop, done) runs X over the nz (CX) points: block DI, SI;
// grid R11, R12. A row that is not whole chunks ends with a chunk moved
// back to end at nz, which rewrites what the one before it wrote.
#define XCHUNKS(X, loop, done) \
	XORQ BX, BX       \
loop:                     \
	ZLANES(0)         \
	X(0, DI, R11)     \
	X(0, SI, R12)     \
	ZLANES(32)        \
	X(32, DI, R11)    \
	X(32, SI, R12)    \
	NEXT4(loop, done)

// func zGatherAVX2(dre, dim, sre, sim *float64, rows, zinv *int, nz int)
//
// Fills the lane block d from the 8 z-rows of nz >= 4 points at s +
// rows[l]: point j of row l goes to row zinv[j], lane l.
TEXT ·zGatherAVX2(SB), NOSPLIT, $0-56
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	MOVQ sre+16(FP), R11
	MOVQ sim+24(FP), R12
	MOVQ rows+32(FP), DX
	MOVQ zinv+40(FP), R10
	MOVQ nz+48(FP), CX
	XCHUNKS(FROMW, zgrows, zgdone)
	VZEROUPPER
	RET

// func zScatterAVX2(dre, dim, sre, sim *float64, rows *int, nz int)
//
// Writes the lane block s back to the 8 z-rows of nz >= 4 points at d +
// rows[l] in natural order: row k, lane l goes to point k of row l.
TEXT ·zScatterAVX2(SB), NOSPLIT, $0-48
	MOVQ dre+0(FP), R11
	MOVQ dim+8(FP), R12
	MOVQ sre+16(FP), DI
	MOVQ sim+24(FP), SI
	MOVQ rows+32(FP), DX
	MOVQ nz+40(FP), CX
	XCHUNKS(TOW, zsrows, zsdone)
	VZEROUPPER
	RET

// The pair kernels: the Go loops at the two ends of ContractPairsWS over
// one z-row of nz >= 4 points, lane after lane, four points per ymm,
// through the scratch w that the z-row transposes move to and from the
// lane block. tab is pairRows.ptr and rows its wrows. In the lane loops
// BX = 8*(base+j) addresses point j of every slab, and of scratch lane l
// through R11, R12; CX counts the points left.

// func pairProductsAVX2(vre, vim, wre, wim *float64, tab **float64, zinv, rows *int, nz, n, base int)
//
// A row that is not whole chunks ends with a chunk moved back to end at
// nz, which rewrites what the one before it wrote.
TEXT ·pairProductsAVX2(SB), NOSPLIT, $0-80
	MOVQ wre+16(FP), R11
	MOVQ wim+24(FP), R12
	MOVQ tab+32(FP), R8
	MOVQ nz+56(FP), R9
	SHLQ $3, R9
	MOVQ n+64(FP), DX
	MOVQ base+72(FP), R13
	SHLQ $3, R13
	SUBQ R13, R11
	SUBQ R13, R12
plane:
	MOVQ (R8), AX
	MOVQ 64(R8), SI
	MOVQ 128(R8), DI
	MOVQ 192(R8), R10
	MOVQ R13, BX
	MOVQ nz+56(FP), CX
pchunk:
	// w = (ar*br + ai*bi, ar*bi - ai*br)
	VMOVUPD (AX)(BX*1), Y8
	VMOVUPD (SI)(BX*1), Y9
	VMULPD  (DI)(BX*1), Y8, Y0
	VMULPD  (R10)(BX*1), Y9, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(BX*1), Y8, Y1
	VMULPD  (DI)(BX*1), Y9, Y2
	VSUBPD  Y2, Y1, Y1
	VMOVUPD Y0, (R11)(BX*1)
	VMOVUPD Y1, (R12)(BX*1)
	NEXT4(pchunk, pnext)
	ADDQ $8, R8
	ADDQ R9, R11
	ADDQ R9, R12
	DECQ DX
	JNZ  plane
	MOVQ vre+0(FP), DI
	MOVQ vim+8(FP), SI
	MOVQ wre+16(FP), R11
	MOVQ wim+24(FP), R12
	MOVQ zinv+40(FP), R10
	MOVQ rows+48(FP), DX
	MOVQ nz+56(FP), CX
	XCHUNKS(FROMW, prows, pdone)
	VZEROUPPER
	RET

// ABODY(LD, ADD, ST, skip): a lane's accumulations at points j..j+3 (LD4,
// ADD4, ST4) or j (LD1, ADD1, ST1, in lane 0), A in AX, SI, B in DI, R10,
// AccB in R14, R9, AccA in R13 (nil: none), DX:
//	AccB += s*(ar*vr - ai*vi), s*(ar*vi + ai*vr)
//	AccA += s*(br*vr + bi*vi), s*(bi*vr - br*vi)
#define ABODY(LD, ADD, ST, skip) \
	LD((R11)(BX*1), Y0)  \
	LD((R12)(BX*1), Y1)  \
	LD((AX)(BX*1), Y8)   \
	LD((SI)(BX*1), Y9)   \
	LD((DI)(BX*1), Y12)  \
	LD((R10)(BX*1), Y13) \
	ACCPART(ADD, ST, Y8, Y0, Y9, Y1, VSUBPD, (R14)(BX*1))   \
	ACCPART(ADD, ST, Y8, Y1, Y9, Y0, VADDPD, (R9)(BX*1))    \
	TESTQ R13, R13 \
	JZ    skip     \
	ACCPART(ADD, ST, Y12, Y0, Y13, Y1, VADDPD, (R13)(BX*1)) \
	ACCPART(ADD, ST, Y13, Y0, Y12, Y1, VSUBPD, (DX)(BX*1))  \
skip:

// ACCPART(ADD, ST, x, u, y, w, OP, acc): acc += s*(x*u OP y*w), s = Y14.
#define ACCPART(ADD, ST, x, u, y, w, OP, acc) \
	VMULPD u, x, Y10     \
	VMULPD w, y, Y11     \
	OP     Y11, Y10, Y10 \
	VMULPD Y14, Y10, Y10 \
	ADD(acc)             \
	ST(acc)

#define LD4(m, r) VMOVUPD m, r
#define ADD4(m) VADDPD m, Y10, Y10
#define ST4(m) VMOVUPD Y10, m
#define LD1(m, r) VBROADCASTSD m, r
#define ADD1(m) VBROADCASTSD m, Y11; VADDPD Y11, Y10, Y10
#define ST1(m) VMOVSD X10, m

// func pairAccumulateAVX2(vre, vim, wre, wim *float64, tab **float64, rows *int, nz, n, base int, scale float64)
//
// A row that is not whole chunks ends point by point: a chunk moved back
// to end at nz would load accumulators that the chunk before it stored in
// part, which the CPU cannot forward from its store buffer.
TEXT ·pairAccumulateAVX2(SB), NOSPLIT, $16-80
	MOVQ vre+0(FP), DI
	MOVQ vim+8(FP), SI
	MOVQ wre+16(FP), R11
	MOVQ wim+24(FP), R12
	MOVQ rows+40(FP), DX
	MOVQ nz+48(FP), CX
	XCHUNKS(TOW, arows, adone)
	MOVQ nz+48(FP), R9
	SHLQ $3, R9
	MOVQ tab+32(FP), R8
	MOVQ base+64(FP), AX
	SHLQ $3, AX
	SUBQ AX, R11
	SUBQ AX, R12
	VBROADCASTSD scale+72(FP), Y14
	MOVQ R9, stride-8(SP)
	MOVQ n+56(FP), AX
	MOVQ AX, left-16(SP)
alane:
	MOVQ (R8), AX
	MOVQ 64(R8), SI
	MOVQ 128(R8), DI
	MOVQ 192(R8), R10
	MOVQ 256(R8), R14
	MOVQ 320(R8), R9
	MOVQ 384(R8), R13
	MOVQ 448(R8), DX
	MOVQ base+64(FP), BX
	SHLQ $3, BX
	MOVQ nz+48(FP), CX
achunk:
	ABODY(LD4, ADD4, ST4, askip)
	ADDQ $32, BX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  achunk
	TESTQ CX, CX
	JZ   anext
apoint:
	ABODY(LD1, ADD1, ST1, apskip)
	ADDQ $8, BX
	DECQ CX
	JNZ  apoint
anext:
	ADDQ stride-8(SP), R11
	ADDQ stride-8(SP), R12
	ADDQ $8, R8
	DECQ left-16(SP)
	JNZ  alane
	VZEROUPPER
	RET
