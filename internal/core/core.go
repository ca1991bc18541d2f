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
	// SCF-iteration spans on it, the BandBlock methods density, potential
	// and orthonormalize spans; the Hamiltonian and its exchange operators
	// record none.
	Tr *trace.Track

	// Residual's buffers, allocated on first use and reused across SCF
	// iterations and steps: H psi, the PT residual, Psi^* H Psi.
	hp, res, ov []complex128

	// refreshErr is the exchange build error of the last Refresh, returned
	// by every ApplyH until the next Refresh.
	refreshErr error
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
	s.refreshErr = s.H.SetFockOrbitals(psi, s.NB)
}

// ApplyH computes H psi of the whole band set into the System's buffer,
// valid until the next ApplyH or Residual. It returns the exchange build
// error of the last Refresh instead, if there was one.
func (s *System) ApplyH(psi []complex128) ([]complex128, error) {
	if s.refreshErr != nil {
		return nil, s.refreshErr
	}
	nb, ng := s.NB, s.G.NG
	if len(s.hp) != nb*ng {
		s.hp, s.res, s.ov = make([]complex128, nb*ng), make([]complex128, nb*ng), make([]complex128, nb*nb)
	}
	s.H.Apply(s.hp, psi, nb)
	return s.hp, nil
}

// Residual computes the PT residual R = H psi - psi (psi^* H psi) - the
// right-hand side of the PT equation of motion, whose smallness relative to
// H psi is what buys the large steps - and the projection matrix into the
// System's buffers; both are valid until the next call.
func (s *System) Residual(psi []complex128) (res, ov []complex128, err error) {
	nb, ng := s.NB, s.G.NG
	hp, err := s.ApplyH(psi)
	if err != nil {
		return nil, nil, err
	}
	linalg.Overlap(s.ov, psi, hp, nb, nb, ng)
	// res = hp - psi * S, band-major: res_j = hp_j - sum_i S[i][j] psi_i.
	linalg.ApplyMatrix(s.res, psi, s.ov, nb, nb, ng)
	for i := range s.res {
		s.res[i] = hp[i] - s.res[i]
	}
	return s.res, s.ov, nil
}

// Orthonormalize re-orthogonalizes the band set into storage of its own (a
// converged iterate stays where it is) and reports the orthonormality error
// before it.
func (s *System) Orthonormalize(psi []complex128) ([]complex128, float64, error) {
	ref := s.Tr.Begin("orthonormalize", "solver")
	defer s.Tr.End(ref)
	out := wavefunc.Clone(psi)
	oerr, err := wavefunc.Orthonormalize(out, make([]complex128, s.NB*s.NB), s.NB, s.G.NG)
	if err != nil {
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
	OrthogonalityE float64 // orthonormality error before re-orthogonalization (RK4: on the steps that do one)
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

// BandBlock is what the propagators ask of the bands they advance: the
// whole band set for the serial solver (System), one rank's band block for
// the distributed one, whose operations are collective.
type BandBlock interface {
	// EnsurePrepared makes H current for psi at time t unless it still is.
	EnsurePrepared(psi []complex128, t float64)
	// Refresh rebuilds H at time t from the iterate psi and the density rho
	// of the whole band set (Alg. 1 line 5).
	Refresh(psi []complex128, rho []float64, t float64)
	// Density returns the charge density of the whole band set.
	Density(psi []complex128) []float64
	// ApplyH returns H psi of the block under the H of the last Refresh,
	// valid until the next ApplyH or Residual.
	ApplyH(psi []complex128) ([]complex128, error)
	// Residual returns the PT residual of the block and the nb x nb
	// projection matrix Psi^* H Psi of the whole set, both valid until the
	// next call.
	Residual(psi []complex128) (res, ov []complex128, err error)
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

// CN is the propagation state both solvers carry between steps: the clock,
// the step count and the step buffers. Its Advance is their one PT-CN step
// body (Algorithm 1), its AdvanceRK4 their one RK4 step body.
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
	// StepIndex counts the trajectory's completed steps and anchors the MTS
	// cycle and RK4's re-orthonormalization; ResumeCycle sets it to a
	// checkpoint's cumulative step, so a resumed segment lands on the
	// continuous run's cadence.
	StepIndex int

	// The step's own buffers, reused across SCF iterations and steps: the
	// half-step RHS Psi_{n+1/2} and the SCF iterate Psi_f, mixed in place.
	// The mixer is Reset per step, so its history vectors, Gram matrices
	// and least squares scratch are allocated once. RK4 keeps its four
	// slopes and its stage state in rk.
	half, psif []complex128
	mixer      *mixing.BandMixer
	rk         [5][]complex128
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

// ResumeCycle lands the step count on a checkpoint's cumulative step and
// reports whether the solver must reinstall phiRef, the frozen exchange
// reference of the last outer step: only mid-cycle on a hybrid run, where a
// missing reference is an error.
func (c *CN) ResumeCycle(step int, phiRef []complex128, hybrid bool) (bool, error) {
	if step < 0 {
		return false, fmt.Errorf("core: resuming at step %d", step)
	}
	c.StepIndex = step
	phase := c.MTSPhase()
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
	rn, ov, err := b.Residual(psi)
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
		rf, ov, err := b.Residual(psif)
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
// at every H rebuild. It has no MTS cadence and no ion coupling; the held
// ACE cadence and Ehrenfest MD are dist.PTCNSolver's, which sim.Run runs on
// one rank for a serial run. Its users are the benchmark's step probe and
// the reference tests.
type PTCN struct {
	Sys *System
	CN
}

// NewPTCN builds a PT-CN propagator starting at t = 0.
func NewPTCN(sys *System, opt PTCNOptions) *PTCN {
	return &PTCN{Sys: sys, CN: CN{Opt: opt}}
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
	return p.Advance(s, s.bands(), psi, dt)
}

// bands places the System's band set: all of it, from band 0.
func (s *System) bands() Bands { return Bands{G: s.G, H: s.H, NB: s.NB, Occ: s.Occ, Tr: s.Tr} }

// rk4ReorthoEvery is RK4's re-orthonormalization period: explicit RK4 is
// not exactly unitary, so every 20th step of the trajectory (StepIndex)
// restores the orthonormality the drift erodes.
const rk4ReorthoEvery = 20

// AdvanceRK4 moves the block psi by dt with the explicit 4th-order
// Runge-Kutta scheme for the Schroedinger-gauge equation
// i dPsi/dt = H(t, P) Psi - the baseline of Fig. 6, whose stability limits
// dt to ~0.5 as where PT-CN takes 50 as. Each slope rebuilds H from its
// stage state (density, potential, exchange reference) and applies it once.
// The step ends with H prepared for the new block, whose global density is
// the blow-up check: replicated data, so on a distributed block success and
// failure are symmetric across ranks.
func (c *CN) AdvanceRK4(b BandBlock, at Bands, psi []complex128, dt float64) ([]complex128, StepStats, error) {
	n := len(psi)
	if len(c.rk[0]) != n {
		for i := range c.rk {
			c.rk[i] = make([]complex128, n)
		}
	}
	k1, k2, k3, k4, stage := c.rk[0], c.rk[1], c.rk[2], c.rk[3], c.rk[4]
	// slope sets k = -i H(t, P[y]) y, the nonlinear TDDFT right-hand side.
	slope := func(k, y []complex128) error {
		hp, err := b.ApplyH(y)
		if err != nil {
			return err
		}
		for i := range k {
			k[i] = hp[i] * complex(0, -1)
		}
		return nil
	}
	// stageAt sets stage = psi + h k and rebuilds H for it at time t.
	stageAt := func(k []complex128, h, t float64) {
		cc := complex(h, 0)
		for i := range stage {
			stage[i] = psi[i] + cc*k[i]
		}
		b.Refresh(stage, b.Density(stage), t)
	}
	stats := StepStats{HApplications: 4}
	tNext, next := c.Time+dt, c.StepIndex+1
	b.EnsurePrepared(psi, c.Time)
	if err := slope(k1, psi); err != nil {
		return nil, stats, err
	}
	stageAt(k1, dt/2, c.Time+dt/2)
	if err := slope(k2, stage); err != nil {
		return nil, stats, err
	}
	stageAt(k2, dt/2, c.Time+dt/2)
	if err := slope(k3, stage); err != nil {
		return nil, stats, err
	}
	stageAt(k3, dt, tNext)
	if err := slope(k4, stage); err != nil {
		return nil, stats, err
	}
	out := make([]complex128, n)
	w := complex(dt/6, 0)
	for i := range out {
		out[i] = psi[i] + w*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	if next%rk4ReorthoEvery == 0 {
		var err error
		if out, stats.OrthogonalityE, err = b.Orthonormalize(out); err != nil {
			return nil, stats, err
		}
	}
	rho := b.Density(out)
	for _, v := range rho {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, stats, errors.New("core: RK4 blew up (non-finite density); time step too large for stability")
		}
	}
	b.Refresh(out, rho, tNext)
	at.H.MarkPrepared(out, tNext)
	c.Time, c.StepIndex = tNext, next
	return out, stats, nil
}

// RK4 is the serial RK4 propagator: AdvanceRK4 over the whole band set of
// one System, the oracle of the distributed solver's StepRK4.
type RK4 struct {
	Sys *System
	CN
}

// NewRK4 builds an RK4 propagator starting at t = 0.
func NewRK4(sys *System) *RK4 { return &RK4{Sys: sys} }

// Step advances psi by dt with four H rebuilds and applications.
func (r *RK4) Step(psi []complex128, dt float64) ([]complex128, StepStats, error) {
	s := r.Sys
	stepRef := s.Tr.Begin("step", "step")
	defer s.Tr.EndN(stepRef, int64(r.StepIndex))
	return r.AdvanceRK4(s, s.bands(), psi, dt)
}
