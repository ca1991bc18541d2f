// AVX2 rendition of LDA's rs >= 1 path (xc.go), four densities per
// register: math.Cbrt, Slater exchange and PZ81's rs >= 1 branch, operation
// for operation in Go's order, with no FMA, as gc compiles LDA on amd64.
// VDIVPD and VSQRTPD round correctly, as DIVSD and SQRTSD do, so a lane the
// kernel takes holds LDA's bits (DESIGN.md section 5, "Vector kernels").
// The constants are xc_amd64.go's lda* vars. Operand order: VDIVPD b, a,
// dst is dst = a / b, VSUBPD likewise, and VCMPPD $p, b, a, dst is
// dst = a p b.

#include "textflag.h"

// func ldaAVX2(eps, v, rho *float64, groups int, exCx float64)
//
// Fills eps and v over 4*groups points. A lane with rho <= 1e-14, NaN,
// +-Inf or rs < 1 gets an all-ones (NaN) eps, for LDAPoints to recompute;
// every other eps is finite if exScale is. Y0 holds x = rho, Y2 t and then rho^(1/3),
// Y3 rs, Y15 exScale*cx.
TEXT ·ldaAVX2(SB), NOSPLIT, $0-40
	MOVQ         eps+0(FP), DI
	MOVQ         v+8(FP), DX
	MOVQ         rho+16(FP), SI
	MOVQ         groups+24(FP), CX
	VBROADCASTSD exCx+32(FP), Y15
	XORQ         BX, BX
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD (SI)(BX*1), Y0

	// bits(x)/3, exact. With 2^32 = 3*0x55555555 + 1, any y = h*2^32 + l
	// has y/3 = h*0x55555555 + (h + l)/3: once for bits(x) (h < 2^31), once
	// for its h + l < 2^33, after which h + l < 2^32 and
	// z/3 = (z*0xAAAAAAAB) >> 33.
	VPSRLQ   $32, Y0, Y1
	VPMULUDQ ·ldaThird(SB), Y1, Y2
	VPSLLQ   $32, Y0, Y3
	VPSRLQ   $32, Y3, Y3
	VPADDQ   Y1, Y3, Y3
	VPSRLQ   $32, Y3, Y1
	VPMULUDQ ·ldaThird(SB), Y1, Y4
	VPADDQ   Y4, Y2, Y2
	VPSLLQ   $32, Y3, Y3
	VPSRLQ   $32, Y3, Y3
	VPADDQ   Y1, Y3, Y3
	VPMULUDQ ·ldaDiv3(SB), Y3, Y3
	VPSRLQ   $33, Y3, Y3
	VPADDQ   Y3, Y2, Y2

	// t = bits/3 + B1<<32; r = t*t/x; s = C + r*t;
	// t *= G + F/(s+E+D/s)
	VPADDQ  ·ldaB1(SB), Y2, Y2
	VMULPD  Y2, Y2, Y3
	VDIVPD  Y0, Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  ·ldaC(SB), Y3, Y3
	VMOVUPD ·ldaD(SB), Y4
	VDIVPD  Y3, Y4, Y4
	VADDPD  ·ldaE(SB), Y3, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD ·ldaF(SB), Y4
	VDIVPD  Y5, Y4, Y4
	VADDPD  ·ldaG(SB), Y4, Y4
	VMULPD  Y4, Y2, Y2

	// chop; s = t*t; r = x/s; w = t+t; r = (r-t)/(w+r); t = t + t*r
	VPAND  ·ldaChop(SB), Y2, Y2
	VPADDQ ·ldaUp(SB), Y2, Y2
	VMULPD Y2, Y2, Y3
	VDIVPD Y3, Y0, Y3
	VADDPD Y2, Y2, Y4
	VSUBPD Y2, Y3, Y5
	VADDPD Y3, Y4, Y4
	VDIVPD Y4, Y5, Y5
	VMULPD Y5, Y2, Y5
	VADDPD Y5, Y2, Y2

	// ex = exScale*cx*rho13 (Y6); vx = 4/3*ex (Y7); rs = rs1/rho13;
	// sq = sqrt(rs) (Y4); den = 1 + beta1*sq + beta2*rs (Y5)
	VMULPD  Y2, Y15, Y6
	VMULPD  ·ldaVx(SB), Y6, Y7
	VMOVUPD ·ldaRs1(SB), Y3
	VDIVPD  Y2, Y3, Y3
	VSQRTPD Y3, Y4
	VMULPD  ·ldaBeta1(SB), Y4, Y5
	VADDPD  ·ldaOne(SB), Y5, Y5
	VMULPD  ·ldaBeta2(SB), Y3, Y1
	VADDPD  Y1, Y5, Y5

	// ec = gamma/den (Y1); vc = ec*(1 + 7/6 beta1*sq + 4/3 beta2*rs)/den;
	// eps = ex + ec, v = vx + vc
	VMOVUPD ·ldaGamma(SB), Y1
	VDIVPD  Y5, Y1, Y1
	VMULPD  ·ldaBeta1Sq(SB), Y4, Y4
	VADDPD  ·ldaOne(SB), Y4, Y4
	VMULPD  ·ldaBeta2Rs(SB), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMULPD  Y4, Y1, Y4
	VDIVPD  Y5, Y4, Y4
	VADDPD  Y1, Y6, Y6
	VADDPD  Y4, Y7, Y7

	// Lanes LDA must take itself: !(x > 1e-14) or !(rs >= 1), each true
	// on NaN (predicates NGT_UQ, NGE_UQ). A NaN or +Inf x reaches rs as
	// NaN (t*t/x, or (r-t)/(w+r) = Inf/Inf), so it fails rs >= 1.
	VCMPPD  $0x0A, ·ldaRhoMin(SB), Y0, Y8
	VCMPPD  $0x09, ·ldaOne(SB), Y3, Y9
	VORPD   Y9, Y8, Y8
	VORPD   Y8, Y6, Y6
	VMOVUPD Y6, (DI)(BX*1)
	VMOVUPD Y7, (DX)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET
