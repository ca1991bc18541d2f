package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/lattice"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/scf"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// groundStateSystem builds a converged Si8 ground state to propagate.
func groundStateSystem(t testing.TB, ecut float64, hybrid bool, field laser.Field) (*System, []complex128) {
	t.Helper()
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), ecut)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()},
		hamiltonian.Config{Hybrid: hybrid, Params: xc.HSE06()})
	nb := g.Cell.NumBands()
	opt := scf.Defaults()
	opt.TolDensity = 1e-8
	if hybrid {
		opt.MaxSCF = 40
		opt.HybridOuter = 3
	}
	res, err := scf.GroundState(g, h, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ground state not converged (density error %g)", res.DensityError)
	}
	return &System{G: g, H: h, NB: nb, Occ: 2, Field: field}, res.Psi
}

func energyOf(s *System, psi []complex128, tm float64) float64 {
	s.Prepare(psi, tm)
	return s.H.TotalEnergy(psi, s.NB, s.Occ).Total()
}

func TestPTCNStepPreservesOrthonormalityAndNorm(t *testing.T) {
	sys, psi := groundStateSystem(t, 3, false, nil)
	p := NewPTCN(sys, DefaultPTCN())
	out, stats, err := p.Step(psi, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SCFIterations < 1 {
		t.Error("no SCF iterations recorded")
	}
	if e := wavefunc.OrthonormalityError(out, sys.NB, sys.G.NG); e > 1e-9 {
		t.Errorf("orthonormality error after step: %g", e)
	}
}

func TestPTCNStationaryGroundState(t *testing.T) {
	// Propagating the ground state with no field must keep the density
	// (and energy) fixed: the PT orbitals only acquire phases absorbed by
	// the PT gauge, so even the orbitals stay close.
	sys, psi := groundStateSystem(t, 3, false, nil)
	rho0 := potential.Density(sys.G, psi, sys.NB, sys.Occ)
	e0 := energyOf(sys, psi, 0)
	p := NewPTCN(sys, DefaultPTCN())
	cur := psi
	var err error
	for i := 0; i < 3; i++ {
		cur, _, err = p.Step(cur, 2.0) // ~48 as steps
		if err != nil {
			t.Fatal(err)
		}
	}
	rho1 := potential.Density(sys.G, cur, sys.NB, sys.Occ)
	d := potential.DensityDiff(sys.G, rho0, rho1, 2*float64(sys.NB))
	if d > 1e-5 {
		t.Errorf("ground state density drifted by %g over 3 PT-CN steps", d)
	}
	e1 := energyOf(sys, cur, p.Time)
	if math.Abs(e1-e0) > 1e-5*math.Abs(e0) {
		t.Errorf("energy drifted: %g -> %g", e0, e1)
	}
}

func TestPTCNEnergyConservationAfterKick(t *testing.T) {
	// After an instantaneous vector-potential kick the Hamiltonian is time
	// independent again, so the total energy must be conserved along the
	// nonlinear propagation.
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	sys, psi := groundStateSystem(t, 3, false, kick)
	p := NewPTCN(sys, DefaultPTCN())
	cur, _, err := p.Step(psi, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	eStart := energyOf(sys, cur, p.Time)
	for i := 0; i < 4; i++ {
		cur, _, err = p.Step(cur, 1.0)
		if err != nil {
			t.Fatal(err)
		}
	}
	eEnd := energyOf(sys, cur, p.Time)
	if math.Abs(eEnd-eStart) > 2e-5*(1+math.Abs(eStart)) {
		t.Errorf("energy not conserved after kick: %.8f -> %.8f (drift %g)",
			eStart, eEnd, eEnd-eStart)
	}
}

func TestPTCNMatchesRK4Observables(t *testing.T) {
	// The PT gauge is exact, so PT-CN differs from finely-stepped RK4 only
	// by the O(dt^2) Crank-Nicolson discretization error. Verify (a) the
	// difference is small at dt = 1 au (~24 as), and (b) it shrinks at
	// second order when dt is halved.
	kick := &laser.Kick{K: 0.05, Pol: [3]float64{0, 0, 1}}
	sysA, psiA := groundStateSystem(t, 3, false, kick)
	sysB := &System{G: sysA.G, H: sysA.H, NB: sysA.NB, Occ: 2, Field: kick}
	psiB := wavefunc.Clone(psiA)

	const tEnd = 2.0
	var err error

	// Reference: RK4 with a fine step.
	rk := NewRK4(sysB)
	for rk.Time < tEnd-1e-9 {
		psiB, _, err = rk.Step(psiB, 0.025)
		if err != nil {
			t.Fatal(err)
		}
	}
	rhoRK := potential.Density(sysB.G, psiB, sysB.NB, 2)

	runPT := func(dt float64) ([]float64, []complex128) {
		pt := NewPTCN(sysA, DefaultPTCN())
		cur := wavefunc.Clone(psiA)
		for pt.Time < tEnd-1e-9 {
			cur, _, err = pt.Step(cur, dt)
			if err != nil {
				t.Fatal(err)
			}
		}
		return potential.Density(sysA.G, cur, sysA.NB, 2), cur
	}
	rhoCoarse, psiCoarse := runPT(1.0)
	rhoFine, _ := runPT(0.5)

	dCoarse := potential.DensityDiff(sysA.G, rhoCoarse, rhoRK, 2*float64(sysA.NB))
	dFine := potential.DensityDiff(sysA.G, rhoFine, rhoRK, 2*float64(sysA.NB))
	if dCoarse > 5e-3 {
		t.Errorf("PT-CN (dt=1.0) vs RK4 density differs by %g", dCoarse)
	}
	if dFine > dCoarse/2.5 {
		t.Errorf("halving dt did not shrink error at ~2nd order: %g -> %g", dCoarse, dFine)
	}
	// Subspace fidelity is gauge invariant and must be ~1.
	f := wavefunc.SubspaceFidelity(psiCoarse, psiB, sysA.NB, sysA.G.NG)
	if math.Abs(f-1) > 2e-3 {
		t.Errorf("subspace fidelity %g, want ~1", f)
	}
}

func TestPTCNStepCountAdvantageOverRK4(t *testing.T) {
	// The enabling claim: PT-CN takes steps ~40-100x larger than RK4 with
	// far fewer H applications per unit time. Count them over t=2 au.
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	sys, psi := groundStateSystem(t, 3, false, kick)
	pt := NewPTCN(sys, DefaultPTCN())
	var hPT int
	cur := psi
	for pt.Time < 2.0-1e-9 {
		var stats StepStats
		var err error
		cur, stats, err = pt.Step(cur, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		hPT += stats.HApplications
	}
	// RK4 at the same accuracy would need dt <~ 0.025 au here:
	// 80 steps x 4 applications = 320 vs PT-CN's ~10-30.
	rk4Apps := int(2.0/0.025) * 4
	if hPT*3 >= rk4Apps {
		t.Errorf("PT-CN used %d H applications; expected at least 3x fewer than RK4's %d", hPT, rk4Apps)
	}
}

func TestRK4StationaryGroundState(t *testing.T) {
	sys, psi := groundStateSystem(t, 3, false, nil)
	rho0 := potential.Density(sys.G, psi, sys.NB, 2)
	rk := NewRK4(sys)
	cur := psi
	var err error
	for i := 0; i < 20; i++ {
		cur, _, err = rk.Step(cur, 0.05)
		if err != nil {
			t.Fatal(err)
		}
	}
	rho1 := potential.Density(sys.G, cur, sys.NB, 2)
	if d := potential.DensityDiff(sys.G, rho0, rho1, 2*float64(sys.NB)); d > 1e-6 {
		t.Errorf("RK4 ground state density drifted by %g", d)
	}
}

func TestPTCNHybridRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid propagation is slow")
	}
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	sys, psi := groundStateSystem(t, 3, true, kick)
	p := NewPTCN(sys, DefaultPTCN())
	cur, stats, err := p.Step(psi, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SCFIterations < 1 {
		t.Error("no SCF iterations")
	}
	e1 := energyOf(sys, cur, p.Time)
	cur, _, err = p.Step(cur, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	e2 := energyOf(sys, cur, p.Time)
	if math.Abs(e2-e1) > 5e-5*(1+math.Abs(e1)) {
		t.Errorf("hybrid energy drift %g", e2-e1)
	}
}

// The converged iterate solves the Crank-Nicolson equation itself,
// Psi_f + i dt/2 R(Psi_f) = Psi_{n+1/2}, whatever path the preconditioned
// mixer took to it: a wrong preconditioner that converged (in density
// change) somewhere else fails here. The iterate is read from the step
// workspace, before the orthonormalization.
func TestPTCNSolvesCNEquation(t *testing.T) {
	sys, psi := groundStateSystem(t, 3, false, &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}})
	opt := DefaultPTCN()
	opt.TolDensity = 1e-10
	p := NewPTCN(sys, opt)
	for _, dt := range []float64{1.0, 2.07} {
		next, _, err := p.Step(psi, dt)
		if err != nil {
			t.Fatal(err)
		}
		psif, half := p.Iterate()
		sys.Prepare(psif, p.Time)
		rf, _, _ := sys.Residual(psif)
		var n2 float64
		for i, r := range rf {
			d := psif[i] + complex(0, dt/2)*r - half[i]
			n2 += real(d)*real(d) + imag(d)*imag(d)
		}
		if n := math.Sqrt(n2); n > 1e-8 {
			t.Errorf("dt %g: converged iterate misses the CN equation by %.3e, want <= 1e-8", dt, n)
		}
		psi = next
	}
}

func TestPTCNFailsGracefullyWhenNotConverging(t *testing.T) {
	sys, psi := groundStateSystem(t, 3, false, nil)
	opt := DefaultPTCN()
	opt.MaxSCF = 1
	opt.TolDensity = 1e-300 // unreachable
	p := NewPTCN(sys, opt)
	if _, _, err := p.Step(psi, 1.0); err == nil {
		t.Error("expected convergence failure error")
	}
}

// A NaN in the state makes the first density error NaN, which no tolerance
// test can ever pass: the step must end there, not after MaxSCF iterations.
func TestPTCNFailsFastOnNonFiniteDensityError(t *testing.T) {
	sys, psi := groundStateSystem(t, 3, false, nil)
	bad := wavefunc.Clone(psi)
	bad[5] = complex(math.NaN(), 0)
	_, stats, err := NewPTCN(sys, DefaultPTCN()).Step(bad, 1.0)
	if err == nil || !strings.Contains(err.Error(), "iteration 1") || !strings.Contains(err.Error(), "not finite") {
		t.Errorf("step from a NaN state: err %v, want the non-finite density error of iteration 1", err)
	}
	if stats.SCFIterations != 1 {
		t.Errorf("step from a NaN state ran %d SCF iterations, want 1", stats.SCFIterations)
	}
}

// The serial solver cannot freeze the exchange: MTS on a hybrid Hamiltonian
// is an error before any work, never a silent per-iteration refresh.
func TestPTCNRejectsHybridMTS(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 2)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()},
		hamiltonian.Config{Hybrid: true, Params: xc.HSE06()})
	nb := g.Cell.NumBands()
	p := NewPTCN(&System{G: g, H: h, NB: nb, Occ: 2}, DefaultPTCN())
	p.MTS = 2
	out, stats, err := p.Step(wavefunc.Random(g, nb, 3), 1.0)
	if err == nil || !strings.Contains(err.Error(), "MTS") {
		t.Fatalf("hybrid step with MTS 2: err %v, want the no-MTS-cadence error", err)
	}
	if out != nil || stats.HApplications != 0 || p.Time != 0 || p.StepIndex != 0 {
		t.Errorf("the refused step did work: out %v, %d H applications, time %g, step %d", out != nil, stats.HApplications, p.Time, p.StepIndex)
	}
}

// A hybrid UseACE System refreshed on a degenerate reference set (a zero
// band) returns the ACE build error from ApplyH, and from the Residual that
// calls it, until a healthy Refresh clears it.
func TestApplyHReturnsACEBuildError(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 2)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()},
		hamiltonian.Config{Hybrid: true, UseACE: true, Params: xc.HSE06()})
	nb := g.Cell.NumBands()
	sys := &System{G: g, H: h, NB: nb, Occ: 2}
	psi := wavefunc.Random(g, nb, 3)
	degenerate := wavefunc.Clone(psi)
	for i := 0; i < g.NG; i++ {
		degenerate[i] = 0
	}
	sys.Refresh(degenerate, sys.Density(psi), 0)
	if _, err := sys.ApplyH(psi); err == nil || !strings.Contains(err.Error(), "ACE") {
		t.Fatalf("ApplyH after a degenerate refresh: err %v, want the ACE build error", err)
	}
	if _, _, err := sys.Residual(psi); err == nil {
		t.Fatal("Residual after a degenerate refresh returned no error")
	}
	sys.Refresh(psi, sys.Density(psi), 0)
	if _, err := sys.ApplyH(psi); err != nil {
		t.Fatalf("ApplyH after a healthy refresh: %v", err)
	}
}

// observed is energyOf the way the propagation loop asks for it: through
// EnsurePrepared, which leaves H marked for the next step's first residual.
func observed(s *System, psi []complex128, tm float64) float64 {
	s.EnsurePrepared(psi, tm)
	return s.H.TotalEnergy(psi, s.NB, s.Occ).Total()
}

type stepper interface {
	Step(psi []complex128, dt float64) ([]complex128, StepStats, error)
}

// trajectory is what one propagator produced: the state and the observed
// energy after each step.
type trajectory struct {
	psi [][]complex128
	e   []float64
}

func (tr *trajectory) step(t *testing.T, p stepper, dt float64) {
	t.Helper()
	next, _, err := p.Step(tr.psi[len(tr.psi)-1], dt)
	if err != nil {
		t.Fatal(err)
	}
	tr.psi = append(tr.psi, next)
}

func (tr *trajectory) observe(s *System, now float64) {
	tr.e = append(tr.e, observed(s, tr.psi[len(tr.psi)-1], now))
}

func (tr *trajectory) sameBits(o *trajectory) bool {
	if len(tr.psi) != len(o.psi) {
		return false
	}
	for k := 1; k < len(tr.psi); k++ {
		if wavefunc.MaxDiff(tr.psi[k], o.psi[k]) != 0 || tr.e[k-1] != o.e[k-1] {
			return false
		}
	}
	return true
}

// Two propagators taking turns on one System (and so one Hamiltonian) must
// each produce the bits it produces alone: the "H is prepared for (Psi, t)"
// mark one of them leaves must never be read by the other, and never
// survive the other's rebuilds of H. PT-CN with RK4 (which re-prepares H
// four times per step) and two PT-CN at different steps, all started from
// the same Psi_0 storage at t = 0; in the shared run both step before
// either observes, so the second finds H marked for its own (Psi_0, 0) by
// the first and already moved on by the first's SCF loop.
func TestSharedSystemPropagatorsMatchAlone(t *testing.T) {
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	sys, psi0 := groundStateSystem(t, 3, false, kick)
	const steps = 3
	type prop struct {
		p   stepper
		now func() float64
		dt  float64
	}
	newPT := func(dt float64) prop {
		p := NewPTCN(sys, DefaultPTCN())
		return prop{p, func() float64 { return p.Time }, dt}
	}
	newRK := func(dt float64) prop {
		p := NewRK4(sys)
		return prop{p, func() float64 { return p.Time }, dt}
	}
	for _, pair := range []struct {
		name string
		a, b func() prop
	}{
		{"ptcn+rk4", func() prop { return newPT(1.0) }, func() prop { return newRK(0.02) }},
		{"ptcn+ptcn", func() prop { return newPT(1.0) }, func() prop { return newPT(0.5) }},
	} {
		alone := func(mk func() prop) *trajectory {
			pr, tr := mk(), &trajectory{psi: [][]complex128{psi0}}
			for k := 0; k < steps; k++ {
				tr.step(t, pr.p, pr.dt)
				tr.observe(sys, pr.now())
			}
			return tr
		}
		wantA, wantB := alone(pair.a), alone(pair.b)
		pa, pb := pair.a(), pair.b()
		gotA, gotB := &trajectory{psi: [][]complex128{psi0}}, &trajectory{psi: [][]complex128{psi0}}
		for k := 0; k < steps; k++ {
			gotA.step(t, pa.p, pa.dt)
			gotB.step(t, pb.p, pb.dt)
			gotA.observe(sys, pa.now())
			gotB.observe(sys, pb.now())
		}
		if !gotA.sameBits(wantA) || !gotB.sameBits(wantB) {
			t.Errorf("%s: interleaved on one System differs from each alone (first: %v, second: %v)",
				pair.name, gotA.sameBits(wantA), gotB.sameBits(wantB))
		}
	}
}

// A step whose state the energy observable already prepared H for builds
// one density and one potential fewer than a step that finds H unmarked,
// and lands on the same bits.
func TestEnsurePreparedSkipsOnlyWhenMarked(t *testing.T) {
	sys, psi0 := groundStateSystem(t, 3, false, &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}})
	run := func(observe bool) ([]complex128, int) {
		rec := trace.NewRecorder()
		sys.Tr = rec.Track(0, "rank 0")
		defer func() { sys.Tr = nil }()
		p := NewPTCN(sys, DefaultPTCN())
		psi := psi0
		for k := 0; k < 3; k++ {
			var err error
			if psi, _, err = p.Step(psi, 1.0); err != nil {
				t.Fatal(err)
			}
			if observe {
				observed(sys, psi, p.Time)
			}
		}
		n := 0
		for _, r := range rec.Profile() {
			if r.Name == "density" || r.Name == "potential" {
				n += int(r.Calls)
			}
		}
		return psi, n
	}
	psiObs, nObs := run(true)
	psiBare, nBare := run(false)
	if wavefunc.MaxDiff(psiObs, psiBare) != 0 {
		t.Error("trajectory depends on whether the energy was observed between steps")
	}
	// Observing adds a density and a potential after the last step only;
	// after the other two they replace the next step's own.
	if nObs != nBare+2 {
		t.Errorf("density+potential builds: %d with the energy observed after each of 3 steps, %d without; want +2", nObs, nBare)
	}
}

// A PT-CN step on Si16 allocates its new state and one density per build -
// not the residual, projection and fixed-point buffers nor the mixer and its
// history (step workspace, warm after one step) nor anything in
// UpdatePotential.
func TestPTCNStepBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g := grid.MustNew(lattice.MustSiliconSupercell(2, 1, 1), 3)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()}, hamiltonian.Config{})
	nb := g.Cell.NumBands()
	opt := scf.Defaults()
	opt.TolDensity = 1e-8
	res, err := scf.GroundState(g, h, nb, opt)
	if err != nil || !res.Converged {
		t.Fatalf("Si16 ground state: converged %v, err %v", res != nil && res.Converged, err)
	}
	sys := &System{G: g, H: h, NB: nb, Occ: 2, Field: &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}}
	p := NewPTCN(sys, DefaultPTCN())
	psi, _, err := p.Step(res.Psi, 1.0) // warm: workspaces allocate on first use
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, _, err = p.Step(psi, 1.0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20); mb > 1.6 {
		t.Errorf("PT-CN step on Si16 allocates %.2f MB, want <= 1.6 (1.24-1.31 measured)", mb)
	}
}
