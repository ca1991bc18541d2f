// Package xc implements the exchange-correlation models: the semi-local
// LDA (Slater exchange + Perdew-Zunger 81 correlation) and the hybrid
// functional parameters of the screened short-range Fock exchange
// (HSE06-like: mixing fraction alpha = 0.25, screening omega = 0.106
// bohr^-1). In the hybrid, a fraction alpha of the short-range semi-local
// exchange is replaced by explicit short-range Fock exchange evaluated by
// internal/fock; the semi-local part here is correspondingly attenuated.
//
// The paper uses HSE06 on top of PBE; we use HSE-like mixing on top of LDA.
// The Fock operator structure - the cost and communication driver - is
// identical (see DESIGN.md deviation #1).
package xc

import "math"

// HybridParams collects the screened-exchange mixing parameters.
type HybridParams struct {
	Alpha float64 // Fock exchange mixing fraction
	Omega float64 // screening parameter (bohr^-1)
}

// HSE06 returns the standard HSE06 mixing parameters.
func HSE06() HybridParams { return HybridParams{Alpha: 0.25, Omega: 0.106} }

// ScreenedKernel returns the short-range Coulomb kernel in reciprocal
// space, K(G) = 4*pi*(1 - exp(-G^2/(4 omega^2)))/G^2, with the finite
// G -> 0 limit pi/omega^2. This is the kernel of the Fock exchange
// operator (Eq. 3); its finite zero-G limit is what makes the screened
// hybrid well defined at the Gamma point without divergence corrections.
func (h HybridParams) ScreenedKernel(g2 float64) float64 {
	if h.Omega <= 0 {
		// Unscreened Coulomb: caller must regularize G = 0 itself.
		if g2 < 1e-12 {
			return 0
		}
		return 4 * math.Pi / g2
	}
	x := g2 / (4 * h.Omega * h.Omega)
	if x < 1e-8 {
		// Series: (1 - e^-x)/x -> 1 - x/2 + ...
		return math.Pi / (h.Omega * h.Omega) * (1 - x/2)
	}
	return 4 * math.Pi * (1 - math.Exp(-x)) / g2
}

// cx is the Slater exchange constant -(3/4)(3/pi)^(1/3); rs1 the
// Wigner-Seitz radius at unit density, (3/(4 pi))^(1/3).
var (
	cx  = -0.75 * math.Cbrt(3/math.Pi)
	rs1 = math.Cbrt(3 / (4 * math.Pi))
)

// PZ81's rs >= 1 branch, shared with the kernel's constants.
const pzGamma, pzBeta1, pzBeta2 = -0.1423, 1.0529, 0.3334

// LDA evaluates the local density approximation energy density and
// potential at density rho (electrons/bohr^3): returns eps_xc (Ha per
// electron) and v_xc (Ha). Slater exchange + PZ81 correlation.
// exScale attenuates the semi-local exchange (1 for pure LDA, 1-alpha for
// the hybrid, where alpha of the exchange is handled by the Fock term).
// One cube root serves both rho^(1/3) and rs, and each correlation branch
// takes one further Log or Sqrt: this runs once per dense-grid point per
// SCF iteration.
func LDA(rho, exScale float64) (eps, v float64) {
	if rho <= 1e-14 {
		return 0, 0
	}
	// Slater exchange.
	rho13 := math.Cbrt(rho)
	ex := exScale * cx * rho13 // energy per electron
	vx := 4.0 / 3.0 * ex       // d(rho*ex)/d(rho)

	// PZ81 correlation with rs = (3/(4 pi rho))^(1/3).
	rs := rs1 / rho13
	var ec, vc float64
	if rs < 1 {
		const (
			a = 0.0311
			b = -0.048
			c = 0.0020
			d = -0.0116
		)
		ln := math.Log(rs)
		ec = a*ln + b + c*rs*ln + d*rs
		vc = a*ln + (b - a/3) + 2.0/3.0*c*rs*ln + (2*d-c)/3*rs
	} else {
		sq := math.Sqrt(rs)
		den := 1 + pzBeta1*sq + pzBeta2*rs
		ec = pzGamma / den
		vc = ec * (1 + 7.0/6.0*pzBeta1*sq + 4.0/3.0*pzBeta2*rs) / den
	}
	return ex + ec, vx + vc
}

// LDAPoints sets eps[i], v[i] = LDA(rho[i], exScale) for every point, the
// same bits. Where hostcpu.AVX2 is set a kernel (xc_amd64.s) runs LDA's
// rs >= 1 path four densities to a register and marks every lane it
// cannot take - rho <= 1e-14, NaN, +-Inf, rs < 1 - with a NaN eps, which
// a lane it takes produces only if LDA's does (a NaN exScale). Every NaN
// eps and the last len(rho)%4 points run LDA here, as every point does on
// the Go path.
func LDAPoints(eps, v, rho []float64, exScale float64) {
	if len(eps) != len(rho) || len(v) != len(rho) {
		panic("xc: LDAPoints buffer size mismatch")
	}
	n := ldaVec(eps, v, rho, exScale)
	for i, r := range rho {
		if i >= n || eps[i] != eps[i] {
			eps[i], v[i] = LDA(r, exScale)
		}
	}
}
