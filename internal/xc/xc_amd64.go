package xc

import (
	"math"

	"ptdft/internal/hostcpu"
)

// The AVX2 LDA kernel (xc_amd64.s): raw pointers, nothing checked; ldaVec
// is its only caller, and LDAPoints has checked the lengths.
//
//go:noescape
func ldaAVX2(eps, v, rho *float64, groups int, exCx float64)

// The kernel's constants, each four times (one 32-byte memory operand):
// math.Cbrt's (fdlibm's s_cbrt: 19/35, -864/1225, 99/70, 45/28, 5/14; the
// bits of its B1 << 32, its 22-bit chop mask and round-up bit), LDA's, and
// the two multipliers of the exact division by 3.
var (
	ldaC, ldaD, ldaE                 = x4(5.42857142857142815906e-01), x4(-7.05306122448979611050e-01), x4(1.41428571428571436819e+00)
	ldaF, ldaG                       = x4(1.60714285714285720630e+00), x4(3.57142857142857150787e-01)
	ldaB1, ldaChop, ldaUp            = x4(math.Float64frombits(715094163 << 32)), x4(math.Float64frombits(0xFFFFFFFFC << 28)), x4(math.Float64frombits(1 << 30))
	ldaOne, ldaRs1, ldaVx, ldaRhoMin = x4(1), x4(rs1), x4(4.0 / 3.0), x4(1e-14)
	ldaGamma, ldaBeta1, ldaBeta2     = x4(pzGamma), x4(pzBeta1), x4(pzBeta2)
	ldaBeta1Sq, ldaBeta2Rs           = x4(7.0 / 6.0 * pzBeta1), x4(4.0 / 3.0 * pzBeta2)
	ldaThird, ldaDiv3                = x4(math.Float64frombits(0x55555555)), x4(math.Float64frombits(0xAAAAAAAB))
)

func x4(c float64) [4]float64 { return [4]float64{c, c, c, c} }

// ldaVec runs the kernel over points [0, len(rho)&^3) and returns that
// bound, or 0 without AVX2.
func ldaVec(eps, v, rho []float64, exScale float64) int {
	n := len(rho) &^ 3
	if !hostcpu.AVX2 || n == 0 {
		return 0
	}
	ldaAVX2(&eps[0], &v[0], &rho[0], n/4, exScale*cx)
	return n
}
