package observe

import (
	"math"
	"math/cmplx"
	"testing"

	"ptdft/internal/core"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/lattice"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/scf"
	"ptdft/internal/wavefunc"
)

func setupSys(t *testing.T) (*core.System, []complex128) {
	t.Helper()
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 3)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()}, hamiltonian.Config{})
	nb := cell.NumBands()
	res, err := scf.GroundState(g, h, nb, scf.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return &core.System{G: g, H: h, NB: nb, Occ: 2}, res.Psi
}

func TestGroundStateCurrentVanishes(t *testing.T) {
	sys, psi := setupSys(t)
	sys.Prepare(psi, 0)
	j := Current(sys, psi)
	for d := 0; d < 3; d++ {
		if math.Abs(j[d]) > 1e-8 {
			t.Errorf("ground state current[%d] = %g, want ~0", d, j[d])
		}
	}
}

func TestKickInducesDiamagneticCurrent(t *testing.T) {
	// Immediately after a kick A, the current is (n_elec/Omega)*A
	// (diamagnetic response): the orbitals have not yet moved.
	sys, psi := setupSys(t)
	kick := 0.02
	sys.Field = &laser.Kick{K: kick, Pol: [3]float64{0, 0, 1}}
	sys.Prepare(psi, 0.001)
	j := Current(sys, psi)
	want := 32.0 / sys.G.Volume() * kick
	if math.Abs(j[2]-want) > 1e-9 {
		t.Errorf("diamagnetic current %g, want %g", j[2], want)
	}
}

func TestEnergyMatchesHamiltonian(t *testing.T) {
	sys, psi := setupSys(t)
	eb := Energy(sys, psi, 0)
	direct := sys.H.TotalEnergy(psi, sys.NB, 2)
	if math.Abs(eb.Total()-direct.Total()) > 1e-12 {
		t.Error("Energy() does not match direct evaluation")
	}
}

func TestAbsorptionSpectrumPeakAtOscillation(t *testing.T) {
	// A damped cosine current at omega0 must produce a spectral peak at
	// omega0.
	omega0 := 0.5
	dt := 0.1
	n := 2000
	jz := make([]float64, n)
	for i := range jz {
		tt := float64(i) * dt
		jz[i] = math.Cos(omega0*tt) * math.Exp(-0.002*tt)
	}
	omegas, sigma := AbsorptionSpectrum(jz, dt, 0, -1.0, 1.0, 200, 0.002)
	best, bestVal := 0.0, math.Inf(-1)
	for i := range omegas {
		if sigma[i] > bestVal {
			bestVal = sigma[i]
			best = omegas[i]
		}
	}
	if math.Abs(best-omega0) > 0.02 {
		t.Errorf("spectrum peak at %g, want %g", best, omega0)
	}
}

func TestAbsorptionSpectrumLinearInKick(t *testing.T) {
	jz := []float64{0.1, 0.2, 0.15, 0.05, -0.02}
	_, s1 := AbsorptionSpectrum(jz, 0.1, 0.1, 0.01, 1, 10, 0.01)
	jz2 := make([]float64, len(jz))
	for i := range jz2 {
		jz2[i] = 2 * jz[i]
	}
	_, s2 := AbsorptionSpectrum(jz2, 0.1, 0.1, 0.02, 1, 10, 0.01)
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-12 {
			t.Fatal("sigma not invariant under linear response scaling")
		}
	}
}

// TestAbsorptionSpectrumTimeBase pins the t0 sample offset against the
// closed form of the transform for an analytic damped cosine: with
// j(t) = cos(omega0 t) exp(-gamma t) sampled at t_i = t0 + i*dt, the sum
//
//	S(omega) = dt * sum_i j(t_i) exp((i omega - eta) t_i)
//
// is a pair of geometric series. The pre-fix code phased sample i at
// t = i*dt while recording it at t = (i+1)*dt - a linear-in-omega phase
// tilt that this closed-form comparison catches immediately.
func TestAbsorptionSpectrumTimeBase(t *testing.T) {
	const (
		omega0 = 0.35
		gamma  = 0.004
		eta    = 0.002
		dt     = 0.25
		t0     = dt // samples recorded after each step, as ptdft -spectrum does
		n      = 1500
		nw     = 64
		wmax   = 1.0
	)
	jz := make([]float64, n)
	for i := range jz {
		ti := t0 + float64(i)*dt
		jz[i] = math.Cos(omega0*ti) * math.Exp(-gamma*ti)
	}
	omegas, sigma := AbsorptionSpectrum(jz, dt, t0, -1.0, wmax, nw, eta)

	// Closed form: cos splits into e^{+i omega0 t} and e^{-i omega0 t};
	// each series has ratio r = exp((i(omega +- omega0) - eta - gamma) dt)
	// and first term exp(z * t0).
	series := func(omega, s0 float64) complex128 {
		z := complex(-eta-gamma, omega+s0*omega0)
		r := cmplx.Exp(z * complex(dt, 0))
		first := cmplx.Exp(z * complex(t0, 0))
		return first * (1 - cmplx.Pow(r, complex(n, 0))) / (1 - r)
	}
	for w := range omegas {
		want := real(complex(dt/2, 0) * (series(omegas[w], 1) + series(omegas[w], -1)))
		if d := math.Abs(sigma[w] - want); d > 1e-10*float64(n) {
			t.Fatalf("omega=%g: sigma %g differs from analytic %g by %g", omegas[w], sigma[w], want, d)
		}
	}

	// The same series phased without the offset must disagree visibly at
	// high omega - the regression the t0 parameter exists to prevent.
	_, tilted := AbsorptionSpectrum(jz, dt, 0, -1.0, wmax, nw, eta)
	if d := math.Abs(tilted[nw-1] - sigma[nw-1]); d < 1e-6 {
		t.Errorf("dropping t0 changed the high-frequency response by only %g; the phase pin is vacuous", d)
	}
}

func TestLayerChargePartitionsTotal(t *testing.T) {
	sys, psi := setupSys(t)
	g := sys.G
	rho := potential.Density(g, psi, sys.NB, 2)
	half := g.Cell.L[2] / 2
	qLo := LayerCharge(g, rho, 0, half)
	qHi := LayerCharge(g, rho, half, g.Cell.L[2])
	total := qLo + qHi
	if math.Abs(total-32) > 1e-8 {
		t.Errorf("layer charges %g + %g = %g, want 32", qLo, qHi, total)
	}
	// The Si8 crystal maps onto itself under the half-cell FCC
	// translation, so the halves hold equal charge up to the egg-box
	// error of the real-space projectors: the 9-point wavefunction grid
	// cannot represent the half-grid shift exactly (the artifact the
	// paper's ref [37] mask functions mitigate). Converging Ecut shrinks
	// it; at Ecut = 3 it sits near 7e-3 electrons.
	if math.Abs(qLo-qHi) > 2e-2 {
		t.Errorf("layer asymmetry %g beyond the expected egg-box level", math.Abs(qLo-qHi))
	}
}

func TestExcitedElectronsZeroAtStart(t *testing.T) {
	sys, psi := setupSys(t)
	if n := ExcitedElectrons(sys, psi, psi); math.Abs(n) > 1e-9 {
		t.Errorf("excited electrons of identical states = %g, want 0", n)
	}
	// A band swap is still the same subspace: gauge invariant, still 0.
	ng := sys.G.NG
	rot := wavefunc.Clone(psi)
	copy(rot[:ng], psi[ng:2*ng])
	copy(rot[ng:2*ng], psi[:ng])
	if n := ExcitedElectrons(sys, psi, rot); math.Abs(n) > 1e-9 {
		t.Errorf("excited electrons under band swap = %g, want 0 (gauge invariance)", n)
	}
}
