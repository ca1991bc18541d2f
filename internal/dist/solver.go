// Distributed PT-CN: Algorithm 1 (core.CN.Advance) executed band-block by
// band-block. Each rank advances its band block with the shared-state
// pieces (density, potential, exchange reference) synchronized by
// collectives:
//
//   - the charge density is accumulated from local bands and MPI_Allreduced
//     (section 3.4), so every rank rebuilds an identical potential and the
//     SCF convergence decision is symmetric across ranks;
//   - the Fock exchange ships reference orbitals through the overlapped
//     broadcast pipeline (section 3.2);
//   - the PT residual projection and the Trsm orthogonalization run in the
//     G-space layout after an Alltoallv transpose (sections 3.3-3.4),
//     where every rank holds all bands over its G slab and the nb x nb
//     matrix work is replicated deterministically.
package dist

import (
	"fmt"
	"math"

	"ptdft/internal/core"
	"ptdft/internal/fock"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/linalg"
	"ptdft/internal/mpi"
	"ptdft/internal/observe"
	"ptdft/internal/potential"
	"ptdft/internal/xc"
)

// PTCNSolver propagates one rank's band block with the parallel transport
// Crank-Nicolson integrator: core.CN's step body over collective band-block
// operations. The Hamiltonian must be built without the hybrid term
// (hamiltonian.Config{}); when useHybrid is set the solver applies the
// exchange itself - exact at every residual, or through the distributed ACE
// compression held with period Ex.MTSPeriod when Ex.ACE is set - since the
// reference orbitals live across ranks.
type PTCNSolver struct {
	core.CN
	D      *Ctx
	H      *hamiltonian.Hamiltonian
	Hyb    xc.HybridParams
	Hybrid bool
	Field  laser.Field
	Ex     ExchangeOptions
	Occ    float64 // orbital occupation (2 for closed shell)

	kernel []float64 // screened Coulomb kernel, built once when hybrid
	exWS   *ExchangeWorkspace
	ws     *stepWorkspace
	ace    *ACE
	// aceStale marks the compressed operator for a rebuild at the next
	// exchange application; Step raises it on outer steps, so the MTS
	// cadence rebuilds from Psi_n and then holds through the inner SCF
	// iterations and the M-1 intermediate steps that follow.
	aceStale bool
	// mtsPhi is this rank's frozen exchange reference block, copied from
	// Psi_n at the last outer step of a cadence with M > 1, so that a
	// mid-cycle checkpoint can persist the reference Xi was built from.
	mtsPhi []complex128
	// vxFor marks, by storage as Hamiltonian.MarkPrepared does, the block
	// whose V_X[Psi]Psi the energy observable left in the exchange
	// workspace's result buffer; the next step's first exchange application
	// asks for the same product. keptVX hands it out once; every other
	// exchange application, every ApplyH, a geometry change and ResumeMTS
	// clear the mark. A marked block must not be edited in place.
	vxFor *complex128
}

// stepWorkspace owns the residual and orthonormalization buffers of the
// solver hot loop (core.CN owns the iterate and the mixer), bound to the
// solver and reused across steps and SCF iterations so the per-iteration
// residual path performs no heap allocations (the mailbox copies inside the
// mpi layer remain - they model the wire, and vanish on one rank).
// TestDistStepAllocs pins the contract.
type stepWorkspace struct {
	hp   []complex128 // nbl x NG: H psi
	res  []complex128 // nbl x NG: PT residual, returned by Residual
	psiG []complex128 // NB x w: iterate in the G layout
	hpG  []complex128 // NB x w: H psi in the G layout
	resG []complex128 // NB x w: residual in the G layout
	ov   []complex128 // nb x nb: overlap / projection matrix
	exc  []complex128 // NB x nbl: ExcitedElectrons' overlap
	excS []float64    // 1: ExcitedElectrons' partial sum, allreduced
	tw   *TransposeWorkspace
}

// stepWS returns the solver's step workspace, allocating it on first use.
func (s *PTCNSolver) stepWS() *stepWorkspace {
	if s.ws == nil {
		nbl, ng := s.D.NumLocalBands(), s.D.G.NG
		nb, w := s.D.NB, s.D.NumLocalG()
		s.ws = &stepWorkspace{
			hp:   make([]complex128, nbl*ng),
			res:  make([]complex128, nbl*ng),
			psiG: make([]complex128, nb*w),
			hpG:  make([]complex128, nb*w),
			resG: make([]complex128, nb*w),
			ov:   make([]complex128, nb*nb),
			exc:  make([]complex128, nb*nbl),
			excS: make([]float64, 1),
			tw:   s.D.NewTransposeWorkspace(),
		}
	}
	return s.ws
}

// NewPTCNSolver builds the distributed propagator starting at t = 0. ACE
// and a hold period come together (ExchangeOptions.MTSPeriod); either one
// alone is a programming error.
func NewPTCNSolver(d *Ctx, h *hamiltonian.Hamiltonian, hyb xc.HybridParams, useHybrid bool, field laser.Field, opt core.PTCNOptions, ex ExchangeOptions) *PTCNSolver {
	if ex.ACE != (ex.MTSPeriod > 0) {
		panic(fmt.Sprintf("dist: ACE is held with a period M >= 1 and nothing else has one (ACE %v, MTSPeriod %d)", ex.ACE, ex.MTSPeriod))
	}
	s := &PTCNSolver{CN: core.CN{Opt: opt, MTS: ex.MTSPeriod}, D: d, H: h, Hyb: hyb, Hybrid: useHybrid, Field: field, Ex: ex, Occ: 2}
	if useHybrid {
		s.kernel = fock.BuildKernel(d.G, hyb)
	}
	return s
}

// exScale attenuates the semi-local exchange when the Fock operator
// carries alpha of it, matching the serial hybrid Hamiltonian.
func (s *PTCNSolver) exScale() float64 {
	if s.Hybrid {
		return 1 - s.Hyb.Alpha
	}
	return 1
}

// Density accumulates the global charge density of the band set whose
// local block this rank holds: local bands on the dense grid, then
// MPI_Allreduce in deterministic rank order so every rank holds
// bit-identical data (the force assembly derives the local-pseudopotential
// force from it too). Collective.
func (s *PTCNSolver) Density(local []complex128) []float64 {
	ref := s.D.C.Trace().Begin("density", "solver")
	nbl := len(local) / s.D.G.NG
	rho := potential.Density(s.D.G, local, nbl, s.Occ)
	mpi.AllreduceSum(s.D.C, tagDensity, rho)
	s.D.C.Trace().End(ref)
	return rho
}

// Refresh installs the field at t and the potential of the global density
// rho; each rank assembles the identical Veff redundantly from the
// allreduced density. The exchange reference is the residual's business,
// so the iterate itself is not read.
func (s *PTCNSolver) Refresh(_ []complex128, rho []float64, t float64) {
	s.H.SetField(laser.At(s.Field, t))
	ref := s.D.C.Trace().Begin("potential", "solver")
	s.H.UpdatePotentialScaled(rho, s.exScale())
	s.D.C.Trace().End(ref)
}

// EnsurePrepared makes H current for this rank's block at time t (global
// density, field, potential) unless H is still marked for it, as
// core.System.EnsurePrepared does. Every writer of H clears the mark, so
// the branch is the same on every rank. Collective.
func (s *PTCNSolver) EnsurePrepared(local []complex128, t float64) {
	if !s.H.PreparedFor(local, t, laser.At(s.Field, t)) {
		s.Refresh(local, s.Density(local), t)
		s.H.MarkPrepared(local, t)
	}
}

// exchangeWS returns the solver's exchange workspace, allocated on first
// use and shared by the exact and ACE construction paths.
func (s *PTCNSolver) exchangeWS() *ExchangeWorkspace {
	if s.exWS == nil {
		s.exWS = s.D.NewExchangeWorkspace()
	}
	return s.exWS
}

// exchange applies the distributed Fock exchange V_X[Psi] Psi to this rank's
// block through the solver's reusable workspace, so the per-iteration
// exchange performs no band-block allocations - or hands out the product the
// energy observable kept for this very block.
func (s *PTCNSolver) exchange(local []complex128) []complex128 {
	if vx := s.keptVX(local); vx != nil {
		return vx
	}
	return s.D.FockExchangeWS(local, local, s.kernel, s.Hyb.Alpha, s.Ex, s.exchangeWS())
}

// keptVX returns the V_X[Psi]Psi the energy observable left behind for this
// very block, or nil, and clears the mark either way: whatever the caller
// does next overwrites the workspace's result buffer.
func (s *PTCNSolver) keptVX(local []complex128) []complex128 {
	kept := s.vxFor
	s.vxFor = nil
	if kept == nil || kept != &local[0] {
		return nil
	}
	return s.exWS.vx
}

// freezeRef snapshots this rank's band block as the frozen exchange
// reference of the current MTS cycle. The buffer is solver-owned and
// reused, keeping the outer-step refresh allocation-free in steady state.
func (s *PTCNSolver) freezeRef(local []complex128) {
	if len(s.mtsPhi) != len(local) {
		s.mtsPhi = make([]complex128, len(local))
	}
	copy(s.mtsPhi, local)
}

// MTSRef exposes this rank's frozen exchange reference block (nil before
// the first outer step or when no cadence with M > 1 is active).
// Checkpointing gathers it so a resumed segment can rebuild the held Xi.
func (s *PTCNSolver) MTSRef() []complex128 {
	if s.MTS <= 0 {
		return nil
	}
	return s.mtsPhi
}

// ResumeMTS restores the step count and the multiple-time-stepping cadence
// state after a checkpoint load at the trajectory's cumulative step
// (core.CN.ResumeCycle): phiRef is this rank's band block of the frozen
// exchange reference saved at the last outer step. Collective when the
// compressed operator must be reconstructed: all ranks call it together.
func (s *PTCNSolver) ResumeMTS(step int, phiRef []complex128) error {
	s.vxFor = nil
	if install, err := s.ResumeCycle(step, phiRef, s.Hybrid); !install {
		return err
	}
	s.freezeRef(phiRef)
	if s.ace == nil {
		s.ace = s.D.NewACE()
	}
	if err := s.ace.Rebuild(s.mtsPhi, nil, s.kernel, s.Hyb.Alpha, s.Ex, s.exchangeWS()); err != nil {
		return err
	}
	s.aceStale = false
	return nil
}

// ApplyH computes H psi for the local band block into the step workspace,
// valid until the next ApplyH or Residual: the semi-local part per band,
// plus the distributed Fock exchange - exact, with the block as its own
// reference (V_X[P] with P from the iterate, as in Alg. 1 line 5), or
// through the held ACE operator, rebuilt from this very block when an outer
// step marked it stale. The block's transpose into the G layout, which the
// ACE build and application read, stays in the workspace for Residual, so
// the iterate crosses the wire once per H application. A kept exchange
// product serves this application or nobody: a held ACE operator applies
// no exchange, and the mark must not outlive it. A failed rebuild
// (degenerate reference set) is a loud, rank-symmetric error, never a
// silent fallback to the exact operator.
func (s *PTCNSolver) ApplyH(local []complex128) ([]complex128, error) {
	ws := s.stepWS()
	s.D.BandToGWS(ws.psiG, local, false, ws.tw)
	s.H.Apply(ws.hp, local, len(local)/s.D.G.NG)
	if !s.Hybrid {
		return ws.hp, nil
	}
	if !s.Ex.ACE {
		vx := s.exchange(local)
		for i := range ws.hp {
			ws.hp[i] += vx[i]
		}
		return ws.hp, nil
	}
	if s.ace == nil {
		s.ace = s.D.NewACE()
	}
	if kept := s.keptVX(local); s.aceStale {
		if err := s.ace.rebuild(local, ws.psiG, kept, s.kernel, s.Hyb.Alpha, s.Ex, s.exchangeWS()); err != nil {
			return nil, err
		}
		s.aceStale = false
	}
	s.ace.ApplyFromG(ws.hp, ws.psiG)
	return ws.hp, nil
}

// Residual computes the PT residual R = H psi - psi (Psi^* H psi) for the
// local block and the allreduced projection matrix into the step
// workspace, both valid until the next call. The band-coupled projection
// runs in the G-space layout: psi (by ApplyH) and H psi are transposed, the
// overlap is accumulated slab-wise and allreduced, the projection applied
// per slab, and the result transposed back - three Alltoallv and one
// Allreduce per call (Fig. 1's data path).
func (s *PTCNSolver) Residual(local []complex128) ([]complex128, []complex128, error) {
	ref := s.D.C.Trace().Begin("residual", "solver")
	defer s.D.C.Trace().End(ref)
	nb := s.D.NB
	ws := s.stepWS()
	if _, err := s.ApplyH(local); err != nil {
		return nil, nil, err
	}
	s.D.BandToGWS(ws.hpG, ws.hp, false, ws.tw)
	w := s.D.NumLocalG()
	linalg.Overlap(ws.ov, ws.psiG, ws.hpG, nb, nb, w)
	mpi.AllreduceSum(s.D.C, tagOverlap, ws.ov)
	linalg.ApplyMatrix(ws.resG, ws.psiG, ws.ov, nb, nb, w)
	for i := range ws.resG {
		ws.resG[i] = ws.hpG[i] - ws.resG[i]
	}
	s.D.GToBandWS(ws.res, ws.resG, false, ws.tw)
	return ws.res, ws.ov, nil
}

// Orthonormalize re-orthogonalizes the global band set from local blocks:
// overlap in the G layout, replicated Cholesky, Trsm per slab (section
// 3.4). It returns the new block and the pre-factorization orthonormality
// error. Collective.
func (s *PTCNSolver) Orthonormalize(local []complex128) ([]complex128, float64, error) {
	ref := s.D.C.Trace().Begin("orthonormalize", "solver")
	defer s.D.C.Trace().End(ref)
	nb := s.D.NB
	ws := s.stepWS()
	s.D.BandToGWS(ws.psiG, local, false, ws.tw)
	w := s.D.NumLocalG()
	linalg.Overlap(ws.ov, ws.psiG, ws.psiG, nb, nb, w)
	mpi.AllreduceSum(s.D.C, tagOverlap, ws.ov)
	var oerr float64
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			v := ws.ov[i*nb+j]
			if i == j {
				v -= 1
			}
			if a := math.Hypot(real(v), imag(v)); a > oerr {
				oerr = a
			}
		}
	}
	if err := linalg.CholeskyLower(ws.ov, nb); err != nil {
		return nil, oerr, fmt.Errorf("dist: orthogonalization failed: %w", err)
	}
	linalg.SolveLowerBands(ws.ov, ws.psiG, nb, w)
	// The orthonormalized block becomes the caller's new state, so this
	// final transpose returns a fresh slice rather than workspace memory.
	return s.D.GToBand(ws.psiG), oerr, nil
}

// Step advances the local band block by dt with Algorithm 1 (core.CN's
// Advance). All ranks must call it together.
func (s *PTCNSolver) Step(local []complex128, dt float64) ([]complex128, core.StepStats, error) {
	tr := s.D.C.Trace()
	stepRef := tr.Begin("step", "step")
	defer tr.EndN(stepRef, int64(s.StepIndex))
	// ACE hold cadence. Outer steps (every M-th step) mark the compressed
	// operator stale, so it is rebuilt from Psi_n at the step's first
	// exchange application and held after; intermediate steps keep the
	// operator of the last outer step. Only a mid-cycle checkpoint (M > 1)
	// reads the Psi_n it was built from, so only then is it copied.
	if s.MTSPhase() == 0 {
		s.aceStale = true
		if s.Hybrid && s.MTS > 1 {
			s.freezeRef(local)
		}
	}
	return s.Advance(s, s.bands(), local, dt)
}

// StepRK4 advances the local band block by dt with the explicit RK4
// baseline (core.CN's AdvanceRK4) over the same collective block operations
// as Step. All ranks must call it together.
func (s *PTCNSolver) StepRK4(local []complex128, dt float64) ([]complex128, core.StepStats, error) {
	tr := s.D.C.Trace()
	stepRef := tr.Begin("step", "step")
	defer tr.EndN(stepRef, int64(s.StepIndex))
	return s.AdvanceRK4(s, s.bands(), local, dt)
}

// bands places this rank's block in the band set.
func (s *PTCNSolver) bands() core.Bands {
	lo, _ := s.D.BandRange(s.D.C.Rank())
	return core.Bands{G: s.D.G, H: s.H, NB: s.D.NB, Lo: lo, Occ: s.Occ, Tr: s.D.C.Trace()}
}

// IonGeometryChanged is the coupled-step hook of the Ehrenfest ion
// integrator: it rebuilds this rank's static geometry-dependent operators
// (nonlocal projectors, local pseudopotential) after an ion drift. Each rank owns a cloned cell (and grid/Hamiltonian built on it),
// so concurrent rebuilds never touch shared memory; the replicated ion
// trajectories stay bit-identical because the forces they integrate are
// allreduced. A held exchange operator (MTS) survives the rebuild
// unchanged - it has no explicit position dependence.
func (s *PTCNSolver) IonGeometryChanged() {
	s.H.RebuildGeometry()
	s.vxFor = nil
}

// AllreduceForces sums per-rank force partials (one [3] per atom) across
// ranks in deterministic rank order, leaving the identical total on every
// rank. The nonlocal projector force is accumulated per band, so each rank
// contributes its band block's share. Collective.
func (s *PTCNSolver) AllreduceForces(f [][3]float64) {
	ref := s.D.C.Trace().Begin("forces", "observe")
	defer s.D.C.Trace().End(ref)
	flat := make([]float64, 3*len(f))
	for i, v := range f {
		flat[3*i], flat[3*i+1], flat[3*i+2] = v[0], v[1], v[2]
	}
	mpi.AllreduceSum(s.D.C, tagForces, flat)
	for i := range f {
		f[i] = [3]float64{flat[3*i], flat[3*i+1], flat[3*i+2]}
	}
}

// TotalEnergy evaluates the energy functional for the local block at time
// t, with H made current for it first (EnsurePrepared; the exchange below
// is the "+1 energy evaluation" Fock application of the paper's per-step
// accounting). The kinetic, nonlocal and exchange partial sums are
// allreduced; the Hartree/XC/local terms come from the replicated potential
// assembly and are already global. The exchange term always goes through the
// exact operator - on its own reference set the ACE compression reproduces it
// exactly, so the once-per-step energy pays no accuracy for skipping the
// compressed path - and its V_X[Psi]Psi is kept for the next Step (vxFor).
// Collective.
func (s *PTCNSolver) TotalEnergy(local []complex128, t float64) hamiltonian.EnergyBreakdown {
	ref := s.D.C.Trace().Begin("energy", "observe")
	defer s.D.C.Trace().End(ref)
	ng := s.D.G.NG
	nbl := len(local) / ng
	s.EnsurePrepared(local, t)
	eb := s.H.TotalEnergy(local, nbl, s.Occ)
	part := []float64{eb.Kinetic, eb.Nonlocal, 0}
	if s.Hybrid {
		s.vxFor = nil // the observable never reads a kept product, it makes one
		vx := s.exchange(local)
		s.vxFor = &local[0]
		var ex float64
		for j := 0; j < nbl; j++ {
			ex += real(linalg.Dot(local[j*ng:(j+1)*ng], vx[j*ng:(j+1)*ng]))
		}
		part[2] = ex
	}
	mpi.AllreduceSum(s.D.C, tagScalars, part)
	eb.Kinetic, eb.Nonlocal, eb.Exchange = part[0], part[1], part[2]
	return eb
}

// Current returns the macroscopic current density summed over all bands
// (velocity gauge, same conventions as observe.Current), with the per-rank
// partial sums allreduced. Uses the field most recently installed on H.
// Collective.
func (s *PTCNSolver) Current(local []complex128) [3]float64 {
	ref := s.D.C.Trace().Begin("current", "observe")
	defer s.D.C.Trace().End(ref)
	nbl := len(local) / s.D.G.NG
	j := observe.CurrentPartial(s.D.G, s.H.Field(), local, nbl)
	part := j[:]
	mpi.AllreduceSum(s.D.C, tagCurrent, part)
	f := s.Occ / s.D.G.Volume()
	return [3]float64{part[0] * f, part[1] * f, part[2] * f}
}

// ExcitedElectrons counts the electrons promoted out of the reference
// subspace (observe.ExcitedElectrons distributed over bands): ref is the
// full t = 0 band set, local this rank's current block. Each rank
// accumulates |<ref_i|psi_j>|^2 over its local j and the partial sums are
// allreduced, both in the step workspace. Collective.
func (s *PTCNSolver) ExcitedElectrons(ref, local []complex128) float64 {
	spanRef := s.D.C.Trace().Begin("excited", "observe")
	defer s.D.C.Trace().End(spanRef)
	ng := s.D.G.NG
	nbl := len(local) / ng
	ws := s.stepWS()
	overlap, part := ws.exc[:s.D.NB*nbl], ws.excS
	linalg.Overlap(overlap, ref, local, s.D.NB, nbl, ng)
	part[0] = 0
	for _, v := range overlap {
		part[0] += real(v)*real(v) + imag(v)*imag(v)
	}
	mpi.AllreduceSum(s.D.C, tagExcited, part)
	return s.Occ * (float64(s.D.NB) - part[0])
}
