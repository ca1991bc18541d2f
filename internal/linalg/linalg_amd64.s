// AVX2 renditions of overlapRow's and applyMatrixCol's inner loops
// (linalg.go): the Go loops' expression trees, operation for operation and
// with no FMA, each output summed over the same operands in the same order,
// so the output is the same bits (DESIGN.md section 5, "Vector kernels").
// The callers (linalg_amd64.go) have checked every length; nothing here is
// bounds-checked. Operand order: the Go assembler writes VSUBPD b, a, dst
// for dst = a - b and VADDSUBPD b, a, dst for dst = (a0 - b0, a1 + b1, ...).

#include "textflag.h"

// OVPT(P, off, YR, YI, RE, IM) adds one point of one a band to that band's
// four outputs: x = the complex at off(P)(CX*1), broadcast in parts to Y12
// and Y13; YR, YI = the four b bands' parts at the same point; then, as
// overlapRow spells it, RE += xr*yr + xi*yi and IM += xr*yi - xi*yr.
#define OVPT(P, off, YR, YI, RE, IM) \
	VBROADCASTSD off(P)(CX*1), Y12   \
	VBROADCASTSD off+8(P)(CX*1), Y13 \
	VMULPD       YR, Y12, Y14        \
	VMULPD       YI, Y13, Y15        \
	VADDPD       Y15, Y14, Y14       \
	VADDPD       Y14, RE, RE         \
	VMULPD       YI, Y12, Y14        \
	VMULPD       YR, Y13, Y15        \
	VSUBPD       Y15, Y14, Y14       \
	VADDPD       Y14, IM, IM

// func overlap4x4AVX2(sum *[32]float64, a, b *complex128, ng, pairs int)
//
// One 4x4 block of the overlap over the first 2*pairs points: a band r
// starts at a + r*ng, b band c at b + c*ng, and the partial sums of output
// (r, c) go to sum[8r+c] (real) and sum[8r+4+c] (imaginary). Per pair of
// points the four b bands are loaded and transposed in registers, so that
// Y8/Y9 hold the parts of the first point across the four bands and
// Y10/Y11 those of the second; each point of each a band is broadcast.
//
//	SI, R8, R9, R10    a bands 0..3
//	DI, R11, R12, R13  b bands 0..3
//	CX                 byte offset of the pair
//	DX                 pairs left
//	Y0..Y7             re, im of a band 0, re, im of a band 1, ...
TEXT ·overlap4x4AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ng+24(FP), BX
	SHLQ $4, BX
	MOVQ pairs+32(FP), DX
	LEAQ (SI)(BX*1), R8
	LEAQ (SI)(BX*2), R9
	LEAQ (R8)(BX*2), R10
	LEAQ (DI)(BX*1), R11
	LEAQ (DI)(BX*2), R12
	LEAQ (R11)(BX*2), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   CX, CX
	TESTQ  DX, DX
	JZ     ovdone

ovloop:
	VMOVUPD    (DI)(CX*1), Y8
	VMOVUPD    (R11)(CX*1), Y9
	VMOVUPD    (R12)(CX*1), Y10
	VMOVUPD    (R13)(CX*1), Y11
	VUNPCKLPD  Y9, Y8, Y12
	VUNPCKHPD  Y9, Y8, Y13
	VUNPCKLPD  Y11, Y10, Y14
	VUNPCKHPD  Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	OVPT(SI, 0, Y8, Y9, Y0, Y1)
	OVPT(R8, 0, Y8, Y9, Y2, Y3)
	OVPT(R9, 0, Y8, Y9, Y4, Y5)
	OVPT(R10, 0, Y8, Y9, Y6, Y7)
	OVPT(SI, 16, Y10, Y11, Y0, Y1)
	OVPT(R8, 16, Y10, Y11, Y2, Y3)
	OVPT(R9, 16, Y10, Y11, Y4, Y5)
	OVPT(R10, 16, Y10, Y11, Y6, Y7)
	ADDQ $32, CX
	DECQ DX
	JNZ  ovloop

ovdone:
	MOVQ    sum+0(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET

// CMUL(off, S, T, ACC) adds c*s to two complex accumulators, s the two
// points at off(AX), c broadcast in parts to Y4, Y5: T = cr*s, S = ci*swap(s),
// T = (cr*sr - ci*si, cr*si + ci*sr), Go's complex product; ACC += T.
#define CMUL(off, S, T, ACC) \
	VMULPD    off(AX), Y4, T   \
	VPERMILPD $5, off(AX), S   \
	VMULPD    S, Y5, S         \
	VADDSUBPD S, T, T          \
	VADDPD    T, ACC, ACC

// func applyMatrixAVX2(dst, src, u *complex128, nIn, nOut, ng, chunks int)
//
// The first 8*chunks points of one output band of the rotation: dst[g] =
// sum over i ascending of c_i*src[i*ng+g], c_i = u[i*nOut], skipping every
// c_i == 0 as applyMatrixCol does. The eight complex accumulators (Y0..Y3)
// stay in registers across all nIn input bands.
//
//	DI      dst at the chunk
//	SI      src band 0 at the chunk
//	R8      u column (c_0)
//	R9, R10 nOut*16, ng*16: bytes from c_i to c_i+1 and band i to i+1
//	R12     chunks left
//	AX, BX  band i at the chunk, c_i
//	DX      input bands left
TEXT ·applyMatrixAVX2(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   u+16(FP), R8
	MOVQ   nOut+32(FP), R9
	SHLQ   $4, R9
	MOVQ   ng+40(FP), R10
	SHLQ   $4, R10
	MOVQ   chunks+48(FP), R12
	VXORPD X15, X15, X15
	TESTQ  R12, R12
	JZ     amdone

amchunk:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   R8, BX
	MOVQ   nIn+24(FP), DX

amband:
	VMOVUPD      (BX), X6
	VCMPPD       $0, X15, X6, X6
	VMOVMSKPD    X6, CX
	CMPQ         CX, $3
	JEQ          amskip
	VBROADCASTSD (BX), Y4
	VBROADCASTSD 8(BX), Y5
	CMUL(0, Y6, Y7, Y0)
	CMUL(32, Y8, Y9, Y1)
	CMUL(64, Y10, Y11, Y2)
	CMUL(96, Y12, Y13, Y3)

amskip:
	ADDQ R10, AX
	ADDQ R9, BX
	DECQ DX
	JNZ  amband
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    R12
	JNZ     amchunk

amdone:
	VZEROUPPER
	RET
