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
		const (
			gamma = -0.1423
			beta1 = 1.0529
			beta2 = 0.3334
		)
		sq := math.Sqrt(rs)
		den := 1 + beta1*sq + beta2*rs
		ec = gamma / den
		vc = ec * (1 + 7.0/6.0*beta1*sq + 4.0/3.0*beta2*rs) / den
	}
	return ex + ec, vx + vc
}
