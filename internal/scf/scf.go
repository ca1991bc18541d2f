// Package scf computes the ground state that seeds the rt-TDDFT
// propagation: a blocked, preconditioned eigensolver (LOBPCG-style
// two-block subspace iteration with the Teter-Payne-Allan preconditioner)
// wrapped in a density self-consistency loop with Anderson mixing, plus an
// outer fixed-point loop over the Fock exchange operator for hybrid
// functionals (the standard nested-SCF structure of hybrid DFT).
//
// Each outer phase fixes the exchange reference to the phase's starting
// orbitals (Hamiltonian.SetFockOrbitals). A Hamiltonian configured with
// UseACE - every hybrid ground state sim.GroundState solves - compresses
// that reference's exchange into the ACE operator once per phase (one
// self-referenced exact application, nb(nb+1)/2 pair solves), and every
// inner H application pays two thin products for it instead of nb^2
// solves. ACE is exact on its reference, so both operators share the
// outer loop's fixed point; at the fixed HybridOuter phase count they
// stop at different distances from it.
package scf

import (
	"errors"
	"fmt"
	"math/cmplx"

	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/linalg"
	"ptdft/internal/mixing"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/wavefunc"
)

// Options control the ground-state solve.
type Options struct {
	MaxSCF      int     // density SCF iterations per Fock phase
	TolDensity  float64 // density convergence (per electron)
	HybridOuter int     // Fock operator refresh cycles (hybrid only)
	Seed        int64   // initial wavefunction seed
}

// The fixed parts of the solve: eigensolver steps per SCF iteration and
// the density mixer's Anderson history and relaxation.
const (
	eigIters   = 4
	mixHistory = 10
	mixBeta    = 0.5
)

// Defaults returns options adequate for the laptop-scale test systems.
func Defaults() Options {
	return Options{
		MaxSCF:      60,
		TolDensity:  1e-7,
		HybridOuter: 4,
		Seed:        1234,
	}
}

// Result is the converged ground state.
type Result struct {
	Psi           []complex128 // band-major sphere coefficients
	Rho           []float64    // dense-grid density
	BandEnergies  []float64
	Energy        hamiltonian.EnergyBreakdown
	SCFIterations int
	Converged     bool
	DensityError  float64
	// EigSteps counts eigensolver steps (one 2nb x 2nb pencil solve each),
	// HApplications band applications of H (an Apply to nb bands is nb).
	EigSteps      int
	HApplications int
}

// GroundState solves for the nb lowest orbitals of the self-consistent
// Hamiltonian. For hybrid Hamiltonians it first converges the semi-local
// problem, then runs HybridOuter phases, each a Fock-operator refresh
// followed by density SCF. The reported energy evaluates the exact
// exchange of the last phase's reference, with ACE or without.
func GroundState(g *grid.Grid, h *hamiltonian.Hamiltonian, nb int, opt Options) (*Result, error) {
	if nb < 1 {
		return nil, errors.New("scf: need at least one band")
	}
	occ := 2.0
	nelec := occ * float64(nb)
	psi := wavefunc.Random(g, nb, opt.Seed)
	rho := potential.Density(g, psi, nb, occ)
	h.UpdatePotential(rho)

	res := &Result{Psi: psi}
	phases := 1
	if h.Hybrid() {
		phases = 1 + opt.HybridOuter
	}
	ew := newEigWork(nb, g.NG)
	totalIter := 0
	for phase := 0; phase < phases; phase++ {
		if phase > 0 {
			// Refresh the Fock reference orbitals and re-converge.
			if err := h.SetFockOrbitals(psi, nb); err != nil {
				return nil, fmt.Errorf("scf: hybrid phase %d exchange refresh: %w", phase, err)
			}
		}
		mixer := mixing.NewRealMixer(mixHistory, mixBeta)
		converged := false
		iters := opt.MaxSCF
		if phase > 0 {
			// Later phases start close to the fixed point.
			iters = opt.MaxSCF/2 + 1
		}
		var lastErr float64
		for it := 0; it < iters; it++ {
			for e := 0; e < eigIters; e++ {
				if err := eigStep(g, h, psi, nb, ew, res); err != nil {
					return nil, fmt.Errorf("scf: phase %d eigensolver failed at iteration %d: %w", phase, it, err)
				}
			}
			rhoOut := potential.Density(g, psi, nb, occ)
			lastErr = potential.DensityDiff(g, rhoOut, rho, nelec)
			totalIter++
			if lastErr < opt.TolDensity {
				converged = true
				rho = rhoOut
				h.UpdatePotential(rho)
				break
			}
			f := make([]float64, len(rho))
			for i := range f {
				f[i] = rhoOut[i] - rho[i]
			}
			rho = sanitizeDensity(g, mixer.Mix(rho, f), nelec)
			h.UpdatePotential(rho)
		}
		res.Converged = converged
		res.DensityError = lastErr
	}
	res.Psi = psi
	res.Rho = rho
	res.SCFIterations = totalIter
	res.BandEnergies = h.BandEnergies(psi, nb)
	res.HApplications += nb
	res.Energy = h.TotalEnergy(psi, nb, occ)
	return res, nil
}

// sanitizeDensity clips negative regions introduced by the mixer and
// rescales to the exact electron count.
func sanitizeDensity(g *grid.Grid, rho []float64, nelec float64) []float64 {
	for i := range rho {
		if rho[i] < 0 {
			rho[i] = 0
		}
	}
	n := potential.IntegrateDensity(g, rho)
	if n > 0 {
		s := nelec / n
		for i := range rho {
			rho[i] *= s
		}
	}
	return rho
}

// eigWork is what eigStep works in, made once per solve by its caller: the
// two-block basis [psi | w] and its image under H (2nb bands each), the
// 2nb x 2nb pencil and the pencil solve's scratch.
type eigWork struct {
	basis, hbasis, a, b []complex128
	pencil              *linalg.EigWork
}

func newEigWork(nb, ng int) *eigWork {
	m := 2 * nb
	return &eigWork{
		basis: make([]complex128, m*ng), hbasis: make([]complex128, m*ng),
		a: make([]complex128, m*m), b: make([]complex128, m*m),
		pencil: linalg.NewEigWork(m),
	}
}

// eigStep performs one two-block LOBPCG-style update of psi in place:
// expand the subspace with Teter-preconditioned residuals, solve the
// 2nb x 2nb projected generalized eigenproblem, and rotate psi onto the
// lowest nb Ritz vectors, all in ew: its basis and hbasis receive
// [psi | w] and its image under H. A singular overlap of [psi | w] (a band
// or residual in the span of the others) fails the Cholesky of the pencil,
// and that is the error, with psi untouched. The step and its band
// applications of H are counted into work.
func eigStep(g *grid.Grid, h *hamiltonian.Hamiltonian, psi []complex128, nb int, ew *eigWork, work *Result) error {
	ng := g.NG
	basis, hbasis := ew.basis, ew.hbasis
	work.EigSteps++
	copy(basis[:nb*ng], psi)
	hp := hbasis[:nb*ng]
	h.Apply(hp, psi, nb)
	work.HApplications += nb

	// Rayleigh quotients and preconditioned residuals.
	w := basis[nb*ng:]
	kin := h.Kinetic()
	parallel.For(nb, func(j int) {
		p := psi[j*ng : (j+1)*ng]
		hpj := hp[j*ng : (j+1)*ng]
		theta := real(linalg.Dot(p, hpj))
		ekin := h.KineticEnergyBand(p)
		if ekin < 1e-8 {
			ekin = 1e-8
		}
		wj := w[j*ng : (j+1)*ng]
		for s := 0; s < ng; s++ {
			r := hpj[s] - complex(theta, 0)*p[s]
			wj[s] = complex(teter(kin[s]/ekin), 0) * r
		}
	})
	h.Apply(hbasis[nb*ng:], w, nb)
	work.HApplications += nb

	// The projected matrices of the expanded basis [psi | w].
	m := 2 * nb
	a, b := ew.a, ew.b
	linalg.Overlap(a, basis, hbasis, m, m, ng)
	linalg.Gram(b, basis, m, ng)
	// The self-overlap b is exactly Hermitian, so Gram computes half of it;
	// a, a product through H, is only Hermitian to rounding.
	hermitize(a, m)

	_, u, err := ew.pencil.GenEigChol(a, b, nb)
	if err != nil {
		return fmt.Errorf("%dx%d Rayleigh-Ritz pencil: %w", m, m, err)
	}
	// basis holds psi's copy, and ApplyMatrix clears its output first. u
	// lives in the pencil solve's own scratch, so a is free for the
	// orthonormalization's overlap.
	linalg.ApplyMatrix(psi, basis, u, nb, m, ng)
	_, err = wavefunc.Orthonormalize(psi, a[:nb*nb], nb, ng)
	return err
}

// hermitize symmetrizes numerical noise: a <- (a + a^H)/2.
func hermitize(a []complex128, n int) {
	for i := 0; i < n; i++ {
		a[i*n+i] = complex(real(a[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			v := (a[i*n+j] + cmplx.Conj(a[j*n+i])) / 2
			a[i*n+j] = v
			a[j*n+i] = cmplx.Conj(v)
		}
	}
}

// teter is the Teter-Payne-Allan preconditioner profile: ~1 for low kinetic
// energy components, ~x^-4 decay for high ones.
func teter(x float64) float64 {
	x2 := x * x
	num := 27 + 18*x + 12*x2 + 8*x2*x
	return num / (num + 16*x2*x2)
}
