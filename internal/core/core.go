// Package core implements the paper's primary contribution: real-time
// TDDFT propagation in the parallel transport (PT) gauge with the implicit
// Crank-Nicolson integrator (PT-CN, Algorithm 1), together with the
// explicit 4th-order Runge-Kutta (RK4) baseline it is compared against in
// Fig. 6.
//
// The PT gauge transforms the orbitals so they obey
//
//	i dPsi/dt = H Psi - Psi (Psi^* H Psi),
//
// the slowest-possible dynamics among all gauge choices; the density matrix
// P = Psi Psi^* - and hence every physical observable - is unchanged.
// Coupled with Crank-Nicolson this permits ~50 attosecond steps where RK4
// needs ~0.5 as, cutting the number of Fock exchange applications by two
// orders of magnitude - the enabling algorithm for hybrid-functional
// rt-TDDFT at the thousand-atom scale.
package core

import (
	"errors"
	"fmt"
	"math"

	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/linalg"
	"ptdft/internal/mixing"
	"ptdft/internal/potential"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
)

// System bundles the pieces of a time-dependent simulation. It is the serial
// PT-CN solver's BandBlock, whose block is the whole band set.
type System struct {
	G     *grid.Grid
	H     *hamiltonian.Hamiltonian
	NB    int         // occupied orbitals
	Occ   float64     // orbital occupation (2 for closed shell)
	Field laser.Field // external vector potential; nil for none

	// Tr is the serial driver's span track ("rank 0" of the flight
	// recorder); nil disables recording. The propagators open step and
	// SCF-iteration spans on it; exchange-level spans come from the
	// Hamiltonian's forwarded copy.
	Tr *trace.Track

	// Residual's buffers, allocated on first use and reused across SCF
	// iterations and steps: H psi, the PT residual, Psi^* H Psi.
	hp, res, ov []complex128
}

// Prepare refreshes every time- and state-dependent piece of H for the
// given orbitals at time t - the "update the potential and the
// Hamiltonian" step of Alg. 1 line 5 - and marks H as prepared for them.
func (s *System) Prepare(psi []complex128, t float64) {
	s.Refresh(psi, s.Density(psi), t)
	s.H.MarkPrepared(psi, t)
}

// EnsurePrepared is Prepare unless H still carries the mark of a Prepare
// for the same orbitals (by storage: the caller must not have edited them
// in place), time and field. The energy observable and the first residual
// of the next step both ask for the converged state of the step before, so
// each state's density and potential are built once. Every writer of H
// clears the mark (hamiltonian.MarkPrepared): a second propagator, a
// geometry rebuild or an exchange-cadence change in between costs a
// rebuild, never a stale potential.
func (s *System) EnsurePrepared(psi []complex128, t float64) {
	if !s.H.PreparedFor(psi, t, laser.At(s.Field, t)) {
		s.Prepare(psi, t)
	}
}

// Density is potential.Density under the "density" span the distributed
// solver also records (Refresh's "potential" span likewise), so a serial and
// a distributed profile have the same rows.
func (s *System) Density(psi []complex128) []float64 {
	ref := s.Tr.Begin("density", "solver")
	rho := potential.Density(s.G, psi, s.NB, s.Occ)
	s.Tr.End(ref)
	return rho
}

// Refresh is Prepare with a caller-supplied density (used inside the PT-CN
// SCF loop, where the density of the current iterate is already known). It
// leaves H unmarked: nothing ties rho to psi.
func (s *System) Refresh(psi []complex128, rho []float64, t float64) {
	s.H.SetField(laser.At(s.Field, t))
	ref := s.Tr.Begin("potential", "solver")
	s.H.UpdatePotential(rho)
	s.Tr.End(ref)
	s.H.SetFockOrbitals(psi, s.NB)
}

// Residual computes the PT residual R = H psi - psi (psi^* H psi) - the
// right-hand side of the PT equation of motion, whose smallness relative to
// H psi is what buys the large steps - and the projection matrix into the
// System's buffers; both are valid until the next call. The serial solver
// refreshes the exchange at every H rebuild, so first is not read.
func (s *System) Residual(psi []complex128, first bool) (res, ov []complex128, err error) {
	nb, ng := s.NB, s.G.NG
	if len(s.hp) != nb*ng {
		s.hp, s.res, s.ov = make([]complex128, nb*ng), make([]complex128, nb*ng), make([]complex128, nb*nb)
	}
	s.H.Apply(s.hp, psi, nb)
	linalg.Overlap(s.ov, psi, s.hp, nb, nb, ng)
	// res = hp - psi * S, band-major: res_j = hp_j - sum_i S[i][j] psi_i.
	linalg.ApplyMatrix(s.res, psi, s.ov, nb, nb, ng)
	for i := range s.res {
		s.res[i] = s.hp[i] - s.res[i]
	}
	return s.res, s.ov, nil
}

// Orthonormalize re-orthogonalizes the band set into storage of its own (a
// converged iterate stays where it is) and reports the orthonormality error
// before it.
func (s *System) Orthonormalize(psi []complex128) ([]complex128, float64, error) {
	ref := s.Tr.Begin("orthonormalize", "solver")
	defer s.Tr.End(ref)
	oerr := wavefunc.OrthonormalityError(psi, s.NB, s.G.NG)
	out := wavefunc.Clone(psi)
	if err := wavefunc.Orthonormalize(out, s.NB, s.G.NG); err != nil {
		return nil, oerr, fmt.Errorf("core: orthogonalization failed: %w", err)
	}
	return out, oerr, nil
}

// StepStats records the work done in one propagation step - the quantities
// the paper's Table 1 accounting is built from.
type StepStats struct {
	SCFIterations  int     // PT-CN only
	HApplications  int     // full H*Psi band-set applications
	DensityError   float64 // final SCF residual (PT-CN)
	OrthogonalityE float64 // orthonormality error before re-orthogonalization
}

// PTCNOptions control the implicit solver.
type PTCNOptions struct {
	MaxSCF     int     // cap on fixed-point iterations per step
	TolDensity float64 // density convergence criterion (paper: 1e-6)
	MixHistory int     // Anderson history (paper: 20)
	MixBeta    float64 // Anderson relaxation
}

// DefaultPTCN takes MaxSCF, TolDensity and MixHistory from the paper
// (section 4). MixBeta is 1 because the mixer is fed PreconditionCN's
// approximate Newton step, not the raw residual the paper damps.
func DefaultPTCN() PTCNOptions {
	return PTCNOptions{MaxSCF: 40, TolDensity: 1e-6, MixHistory: 20, MixBeta: 1}
}

// PreconditionCN applies the diagonal approximate inverse of the
// Crank-Nicolson Jacobian to a band block in place: coefficient s of local
// band j is divided by 1 + i dt/2 (kin[s] - eps_j), with eps_j the real
// diagonal of the nb x nb projection matrix ov = Psi^* H Psi at global band
// lo + j. Linearising Alg. 1 line 6 around the iterate and keeping the part
// diagonal in G leaves exactly this operator (DESIGN.md, "Preconditioned
// Crank-Nicolson fixed point"); both PT-CN solvers feed the mixer through it.
func PreconditionCN(f []complex128, kin []float64, ov []complex128, nb, lo int, dt float64) {
	ng := len(kin)
	for j := 0; j < len(f)/ng; j++ {
		eps := real(ov[(lo+j)*nb+lo+j])
		fj := f[j*ng : (j+1)*ng]
		for s, k := range kin {
			// 1/(1 + ix) = (1 - ix)/(1 + x^2): no complex division.
			x := dt / 2 * (k - eps)
			d := 1 / (1 + x*x)
			fj[s] *= complex(d, -x*d)
		}
	}
}

// BandBlock is what the Crank-Nicolson loop asks of the bands it advances:
// the whole band set for the serial solver (System), one rank's band block
// for the distributed one, whose operations are collective.
type BandBlock interface {
	// EnsurePrepared makes H current for psi at time t unless it still is.
	EnsurePrepared(psi []complex128, t float64)
	// Refresh rebuilds H at time t from the iterate psi and the density rho
	// of the whole band set (Alg. 1 line 5).
	Refresh(psi []complex128, rho []float64, t float64)
	// Density returns the charge density of the whole band set.
	Density(psi []complex128) []float64
	// Residual returns the PT residual of the block and the nb x nb
	// projection matrix Psi^* H Psi of the whole set, both valid until the
	// next call; first marks the residual at Psi_n, the rest are at
	// iterates.
	Residual(psi []complex128, first bool) (res, ov []complex128, err error)
	// Orthonormalize returns the re-orthogonalized block in storage of its
	// own and the orthonormality error before it.
	Orthonormalize(psi []complex128) ([]complex128, float64, error)
}

// Bands places a BandBlock in the band set: NB bands of Occ electrons on
// grid G, the block's first at global index Lo. H supplies the
// preconditioner's kinetic diagonal and Tr takes the scf_iter spans.
type Bands struct {
	G      *grid.Grid
	H      *hamiltonian.Hamiltonian
	NB, Lo int
	Occ    float64
	Tr     *trace.Track
}

// CN is the Crank-Nicolson state both PT-CN solvers carry between steps,
// and its Advance is their one step body (Algorithm 1).
type CN struct {
	Opt  PTCNOptions
	Time float64 // current simulation time (au)

	// MTS is the multiple-time-stepping refresh period M (Mandal et al.,
	// arXiv:2110.07670, adapted to PT-CN): when M >= 1 and the functional is
	// hybrid, the ACE exchange operator is rebuilt from Psi_n only on outer
	// steps (StepIndex mod M == 0) and held frozen - through the inner SCF
	// and through the M-1 intermediate steps - while the semi-local physics
	// advances every step. 0 (the default) applies the exchange to the
	// iterate at every H rebuild. Only dist.PTCNSolver holds an exchange
	// operator; PTCN.Step refuses M >= 1 on a hybrid Hamiltonian.
	MTS int
	// StepIndex counts completed steps and anchors the MTS cycle;
	// ResumeCycle sets it when resuming from a checkpoint so the segment
	// lands on the correct outer/inner phase.
	StepIndex int

	// The step's own buffers, reused across SCF iterations and steps: the
	// half-step RHS Psi_{n+1/2} and the SCF iterate Psi_f, mixed in place.
	// The mixer is Reset per step, so its history vectors, Gram matrices
	// and least squares scratch are allocated once.
	half, psif []complex128
	mixer      *mixing.BandMixer
}

// MTSPhase reports the position within the current MTS cycle: the number
// of steps completed since the last outer step, in [0, M); 0 when MTS is
// off. A checkpoint taken at phase 0 needs no frozen reference - the next
// step is an outer step and rebuilds from Psi_n.
func (c *CN) MTSPhase() int {
	if c.MTS > 0 {
		return c.StepIndex % c.MTS
	}
	return 0
}

// ResumeCycle lands the step count on a checkpoint's MTS phase (the loaded
// cumulative step modulo M) and reports whether the solver must reinstall
// phiRef, the frozen exchange reference of the last outer step: only
// mid-cycle on a hybrid run, where a missing reference is an error.
func (c *CN) ResumeCycle(phase int, phiRef []complex128, hybrid bool) (bool, error) {
	if m := max(c.MTS, 1); phase < 0 || phase >= m {
		return false, fmt.Errorf("core: resuming at MTS phase %d, outside the cycle [0, %d)", phase, m)
	}
	c.StepIndex = phase
	if phase == 0 || !hybrid {
		return false, nil
	}
	if phiRef == nil {
		return false, fmt.Errorf("core: resuming mid-cycle (phase %d of %d) needs the frozen exchange reference", phase, c.MTS)
	}
	return true, nil
}

// Iterate returns the last step's converged iterate Psi_f, before the
// orthonormalization, and its half-step RHS Psi_{n+1/2}: workspace, valid
// until the next step.
func (c *CN) Iterate() (psif, half []complex128) { return c.psif, c.half }

// Advance moves the block psi by dt with Algorithm 1 and returns the new
// block, under whatever exchange cadence the solver set up for the step.
// Every branch reads replicated data (the global density, the allreduced
// projection matrix), so on a distributed block success and failure are
// symmetric across ranks.
func (c *CN) Advance(b BandBlock, at Bands, psi []complex128, dt float64) ([]complex128, StepStats, error) {
	var stats StepStats
	// Line 1: residual Rn at time tn with the current state's H - already
	// prepared when the energy observable of the previous step asked for it.
	b.EnsurePrepared(psi, c.Time)
	rn, ov, err := b.Residual(psi, true)
	if err != nil {
		return nil, stats, err
	}
	stats.HApplications++
	if len(c.psif) != len(psi) {
		c.half, c.psif = make([]complex128, len(psi)), make([]complex128, len(psi))
		c.mixer = mixing.NewBandMixer(len(psi)/at.G.NG, at.G.NG, c.Opt.MixHistory, c.Opt.MixBeta)
	}

	// Line 2: half-step RHS Psi_{n+1/2} = Psi_n - i dt/2 Rn, and the trial
	// state Psi_n - i dt K Rn, the Crank-Nicolson equation linearised at
	// Psi_n (the paper starts from Psi_{n+1/2}).
	half, psif := c.half, c.psif
	ihalf, idt := complex(0, dt/2), complex(0, dt)
	for i := range half {
		half[i] = psi[i] - ihalf*rn[i]
	}
	PreconditionCN(rn, at.H.Kinetic(), ov, at.NB, at.Lo, dt)
	for i := range psif {
		psif[i] = psi[i] - idt*rn[i]
	}

	// Line 3: density of the trial state.
	rhof := b.Density(psif)

	c.mixer.Reset()
	tNext := c.Time + dt
	for j := 0; j < c.Opt.MaxSCF; j++ {
		iterRef := at.Tr.Begin("scf_iter", "solver")
		// Line 5: refresh H_f from the current iterate.
		b.Refresh(psif, rhof, tNext)

		// Line 6: fixed-point residual
		// R_f = Psi_f + i dt/2 (H Psi_f - Psi_f (Psi_f^* H Psi_f)) - Psi_{n+1/2}.
		rf, ov, err := b.Residual(psif, false)
		if err != nil {
			at.Tr.EndN(iterRef, int64(j))
			return nil, stats, err
		}
		stats.HApplications++
		for i := range rf {
			// Mixer convention: next = x + beta*f, so pass f = -R_f; it
			// overwrites the residual, which the mixer copies.
			rf[i] = half[i] - psif[i] - ihalf*rf[i]
		}

		// Line 7: Anderson mixing per band, on the preconditioned residual.
		PreconditionCN(rf, at.H.Kinetic(), ov, at.NB, at.Lo, dt)
		c.mixer.MixInto(psif, psif, rf)

		// Line 8-9: density change convergence monitor.
		rhoNew := b.Density(psif)
		stats.DensityError = potential.DensityDiff(at.G, rhoNew, rhof, at.Occ*float64(at.NB))
		rhof = rhoNew
		stats.SCFIterations++
		at.Tr.EndN(iterRef, int64(j))
		if e := stats.DensityError; math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, stats, fmt.Errorf("core: PT-CN SCF iteration %d: density error %v is not finite", j+1, e)
		}
		if stats.DensityError < c.Opt.TolDensity {
			// Line 11: re-orthogonalize; the converged iterate stays in the
			// workspace.
			out, oerr, err := b.Orthonormalize(psif)
			stats.OrthogonalityE = oerr
			if err != nil {
				return nil, stats, err
			}
			c.Time = tNext
			c.StepIndex++
			return out, stats, nil
		}
	}
	return nil, stats, fmt.Errorf("core: PT-CN SCF did not converge in %d iterations (density error %.3e)",
		c.Opt.MaxSCF, stats.DensityError)
}

// PTCN is the serial parallel transport Crank-Nicolson propagator: the
// whole band set of one System, with the exchange refreshed from the iterate
// at every H rebuild. It has no MTS cadence; the held ACE cadence is
// dist.PTCNSolver's, which sim.Run runs on one rank for a serial run.
type PTCN struct {
	Sys *System
	CN
}

// NewPTCN builds a PT-CN propagator starting at t = 0.
func NewPTCN(sys *System, opt PTCNOptions) *PTCN {
	return &PTCN{Sys: sys, CN: CN{Opt: opt}}
}

// IonGeometryChanged is the coupled-step hook of the Ehrenfest ion
// integrator: after an ion drift it rebuilds the Hamiltonian's static
// geometry-dependent operators (nonlocal projectors, local
// pseudopotential). The exchange operator carries no explicit position
// dependence and is rebuilt from the iterate at the next refresh anyway.
func (p *PTCN) IonGeometryChanged() {
	p.Sys.H.RebuildGeometry()
}

// Step advances psi by dt using Algorithm 1 and returns the new orbitals.
// A hybrid step with MTS >= 1 is an error: this solver cannot freeze the
// exchange, and refreshing it every iteration instead would be a silent
// change of cadence.
func (p *PTCN) Step(psi []complex128, dt float64) ([]complex128, StepStats, error) {
	s := p.Sys
	if p.MTS > 0 && s.H.Hybrid() {
		return nil, StepStats{}, fmt.Errorf("core: serial PT-CN has no MTS cadence (MTS %d on a hybrid Hamiltonian); run it with dist.PTCNSolver", p.MTS)
	}
	stepRef := s.Tr.Begin("step", "step")
	defer s.Tr.EndN(stepRef, int64(p.StepIndex))
	return p.Advance(s, Bands{G: s.G, H: s.H, NB: s.NB, Occ: s.Occ, Tr: s.Tr}, psi, dt)
}

// RK4 is the explicit 4th-order Runge-Kutta propagator for the original
// Schroedinger-gauge equation i dPsi/dt = H(t, P) Psi - the baseline of
// Fig. 6. Stability limits dt to ~0.5 as where PT-CN takes 50 as.
type RK4 struct {
	Sys  *System
	Time float64
	// ReorthoEvery re-orthonormalizes every k steps to curb drift
	// (0 disables; explicit RK4 is not exactly unitary).
	ReorthoEvery int
	steps        int
}

// NewRK4 builds an RK4 propagator starting at t = 0.
func NewRK4(sys *System) *RK4 { return &RK4{Sys: sys, ReorthoEvery: 20} }

// derivative evaluates F(t, psi) = -i H(t, P[psi]) psi, rebuilding the
// density, potentials and Fock operator from psi (the nonlinear TDDFT
// right-hand side).
func (r *RK4) derivative(psi []complex128, t float64) []complex128 {
	s := r.Sys
	s.Prepare(psi, t)
	hp := make([]complex128, s.NB*s.G.NG)
	s.H.Apply(hp, psi, s.NB)
	for i := range hp {
		hp[i] *= complex(0, -1)
	}
	return hp
}

// Step advances psi by dt with four H rebuilds/applications.
func (r *RK4) Step(psi []complex128, dt float64) ([]complex128, StepStats, error) {
	stepRef := r.Sys.Tr.Begin("step", "step")
	defer r.Sys.Tr.EndN(stepRef, int64(r.steps))
	n := len(psi)
	var stats StepStats
	add := func(base []complex128, k []complex128, c float64) []complex128 {
		out := make([]complex128, n)
		cc := complex(c, 0)
		for i := range out {
			out[i] = base[i] + cc*k[i]
		}
		return out
	}
	k1 := r.derivative(psi, r.Time)
	k2 := r.derivative(add(psi, k1, dt/2), r.Time+dt/2)
	k3 := r.derivative(add(psi, k2, dt/2), r.Time+dt/2)
	k4 := r.derivative(add(psi, k3, dt), r.Time+dt)
	stats.HApplications = 4
	out := make([]complex128, n)
	c := complex(dt/6, 0)
	for i := range out {
		out[i] = psi[i] + c*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	r.Time += dt
	r.steps++
	stats.OrthogonalityE = wavefunc.OrthonormalityError(out, r.Sys.NB, r.Sys.G.NG)
	if r.ReorthoEvery > 0 && r.steps%r.ReorthoEvery == 0 {
		if err := wavefunc.Orthonormalize(out, r.Sys.NB, r.Sys.G.NG); err != nil {
			return nil, stats, fmt.Errorf("core: RK4 orthogonalization failed: %w", err)
		}
	}
	if !finite(out) {
		return nil, stats, errors.New("core: RK4 blew up (NaN/Inf); time step too large for stability")
	}
	return out, stats, nil
}

func finite(x []complex128) bool {
	for _, v := range x {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
			return false
		}
	}
	return true
}
