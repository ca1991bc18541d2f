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
	EigIters    int     // eigensolver steps per SCF iteration
	MixHistory  int     // Anderson history for density mixing
	MixBeta     float64 // Anderson relaxation
	HybridOuter int     // Fock operator refresh cycles (hybrid only)
	Seed        int64   // initial wavefunction seed
	Logf        func(format string, args ...any)
}

// Defaults returns options adequate for the laptop-scale test systems.
func Defaults() Options {
	return Options{
		MaxSCF:      60,
		TolDensity:  1e-7,
		EigIters:    4,
		MixHistory:  10,
		MixBeta:     0.5,
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
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
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
	totalIter := 0
	for phase := 0; phase < phases; phase++ {
		if phase > 0 {
			// Refresh the Fock reference orbitals and re-converge.
			if err := h.SetFockOrbitals(psi, nb); err != nil {
				return nil, fmt.Errorf("scf: hybrid phase %d exchange refresh: %w", phase, err)
			}
			logf("scf: hybrid phase %d/%d", phase, phases-1)
		}
		mixer := mixing.NewRealMixer(opt.MixHistory, opt.MixBeta)
		converged := false
		iters := opt.MaxSCF
		if phase > 0 {
			// Later phases start close to the fixed point.
			iters = opt.MaxSCF/2 + 1
		}
		var lastErr float64
		for it := 0; it < iters; it++ {
			for e := 0; e < opt.EigIters; e++ {
				var err error
				psi, err = eigStep(g, h, psi, nb, res)
				if err != nil {
					return nil, fmt.Errorf("scf: phase %d eigensolver failed at iteration %d: %w", phase, it, err)
				}
			}
			rhoOut := potential.Density(g, psi, nb, occ)
			lastErr = potential.DensityDiff(g, rhoOut, rho, nelec)
			totalIter++
			logf("scf: phase %d iter %d density error %.3e", phase, it, lastErr)
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

// DiagonalizeFixed solves for the nb lowest eigenpairs of the Hamiltonian
// with its current (frozen) potential: the non-self-consistent band
// evaluation used for band structures at arbitrary k-points (set via
// h.SetBloch) once the Gamma-point density has been converged.
func DiagonalizeFixed(g *grid.Grid, h *hamiltonian.Hamiltonian, nb, iters int, seed int64) ([]float64, []complex128, error) {
	if nb < 1 {
		return nil, nil, errors.New("scf: need at least one band")
	}
	psi := wavefunc.Random(g, nb, seed)
	var err error
	for i := 0; i < iters; i++ {
		psi, err = eigStep(g, h, psi, nb, &Result{})
		if err != nil {
			return nil, nil, err
		}
	}
	return h.BandEnergies(psi, nb), psi, nil
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

// eigStep performs one two-block LOBPCG-style update: expand the subspace
// with Teter-preconditioned residuals, solve the 2nb x 2nb projected
// generalized eigenproblem, and keep the lowest nb Ritz vectors. A
// singular overlap of [psi | w] (a band or residual in the span of the
// others) fails the Cholesky of the pencil, and that is the error. The step
// and its band applications of H are counted into work.
func eigStep(g *grid.Grid, h *hamiltonian.Hamiltonian, psi []complex128, nb int, work *Result) ([]complex128, error) {
	ng := g.NG
	work.EigSteps++
	hp := make([]complex128, nb*ng)
	h.Apply(hp, psi, nb)
	work.HApplications += nb

	// Rayleigh quotients and preconditioned residuals.
	w := make([]complex128, nb*ng)
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

	// Build the expanded basis [psi | w] and the projected matrices.
	m := 2 * nb
	basis := make([]complex128, m*ng)
	copy(basis[:nb*ng], psi)
	copy(basis[nb*ng:], w)
	hw := make([]complex128, nb*ng)
	h.Apply(hw, w, nb)
	work.HApplications += nb
	hbasis := make([]complex128, m*ng)
	copy(hbasis[:nb*ng], hp)
	copy(hbasis[nb*ng:], hw)

	a := make([]complex128, m*m)
	b := make([]complex128, m*m)
	linalg.Overlap(a, basis, hbasis, m, m, ng)
	linalg.Overlap(b, basis, basis, m, m, ng)
	hermitize(a, m)
	hermitize(b, m)

	_, vecs, err := linalg.GenEigChol(a, b, m)
	if err != nil {
		return nil, fmt.Errorf("%dx%d Rayleigh-Ritz pencil: %w", m, m, err)
	}
	// Rotate onto the lowest nb Ritz vectors: u[i*nb+j] = vecs[i*m+j].
	u := make([]complex128, m*nb)
	for i := 0; i < m; i++ {
		copy(u[i*nb:(i+1)*nb], vecs[i*m:i*m+nb])
	}
	out := make([]complex128, nb*ng)
	linalg.ApplyMatrix(out, basis, u, nb, m, ng)
	if err := wavefunc.Orthonormalize(out, nb, ng); err != nil {
		return nil, err
	}
	return out, nil
}

// hermitize symmetrizes numerical noise: a <- (a + a^H)/2.
func hermitize(a []complex128, n int) {
	for i := 0; i < n; i++ {
		a[i*n+i] = complex(real(a[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			v := (a[i*n+j] + conj(a[j*n+i])) / 2
			a[i*n+j] = v
			a[j*n+i] = conj(v)
		}
	}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// teter is the Teter-Payne-Allan preconditioner profile: ~1 for low kinetic
// energy components, ~x^-4 decay for high ones.
func teter(x float64) float64 {
	x2 := x * x
	num := 27 + 18*x + 12*x2 + 8*x2*x
	return num / (num + 16*x2*x2)
}
