// Distributed integration tests: the internal/dist PT-CN solver against
// the serial core.PTCN reference on the shared Si8 fixture, across rank
// counts, exchange cadences and wire precisions, and its RK4 step.
package ptdft_test

import (
	"math"
	"strings"
	"testing"

	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/mpi"
	"ptdft/internal/observe"
	"ptdft/internal/potential"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// propagate runs `steps` distributed PT-CN steps on `ranks` ranks and
// returns the gathered final orbitals, the final energy breakdown total
// and the final current.
func propagate(t *testing.T, g *grid.Grid, psi0 []complex128, nb int, hybrid bool, ranks, steps int, dt float64, opt dist.ExchangeOptions) (psi []complex128, energy float64, current [3]float64) {
	t.Helper()
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	psi = make([]complex128, nb*g.NG)
	mpi.Run(ranks, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), hybrid, kick, core.DefaultPTCN(), opt)
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
		for i := 0; i < steps; i++ {
			local, _, err = s.Step(local, dt)
			if err != nil {
				t.Errorf("rank %d step %d: %v", c.Rank(), i, err)
				return
			}
		}
		eb := s.TotalEnergy(local, s.Time)
		j := s.Current(local)
		full := d.Gather(local)
		if c.Rank() == 0 {
			copy(psi, full)
			energy = eb.Total()
			current = j
		}
	})
	return psi, energy, current
}

// TestDistributedSemilocalMatchesSerial propagates the semi-local system
// distributed over several rank counts and compares density and energy
// against the serial core.PTCN propagator. Both run core.CN's one step
// body, so on one rank the distributed solver is the serial one bit for
// bit: state, energy and current.
func TestDistributedSemilocalMatchesSerial(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: kick}
	p := core.NewPTCN(sys, core.DefaultPTCN())
	ref := wavefunc.Clone(psi0)
	var err error
	const steps, dt = 2, 1.0
	for i := 0; i < steps; i++ {
		if ref, _, err = p.Step(ref, dt); err != nil {
			t.Fatal(err)
		}
	}
	refRho := potential.Density(g, ref, nb, 2)
	refE := observe.Energy(sys, ref, p.Time).Total()
	refJ := observe.Current(sys, ref)

	for _, ranks := range []int{1, 2, 3, 4} {
		got, e, j := propagate(t, g, psi0, nb, false, ranks, steps, dt, dist.ExchangeOptions{})
		if ranks == 1 {
			if d := wavefunc.MaxDiff(ref, got); d != 0 || e != refE || j != refJ {
				t.Errorf("ranks=1: not the serial bits: state max diff %g, energy %v vs %v, current %v vs %v", d, e, refE, j, refJ)
			}
		}
		rho := potential.Density(g, got, nb, 2)
		if d := potential.DensityDiff(g, refRho, rho, 32); d > 1e-7 {
			t.Errorf("ranks=%d: density differs from serial by %g", ranks, d)
		}
		if d := math.Abs(e - refE); d > 1e-7 {
			t.Errorf("ranks=%d: energy %.10f vs serial %.10f", ranks, e, refE)
		}
		if d := math.Abs(j[2] - refJ[2]); d > 1e-7 {
			t.Errorf("ranks=%d: current %g vs serial %g", ranks, j[2], refJ[2])
		}
		// The physical state must match band-subspace-wise, not just in
		// integrated observables.
		if f := wavefunc.SubspaceFidelity(ref, got, nb, g.NG); math.Abs(f-1) > 1e-8 {
			t.Errorf("ranks=%d: subspace fidelity %g, want 1", ranks, f)
		}
	}
}

// TestDistributedSolvesCNEquation is TestPTCNSolvesCNEquation on two ranks:
// the converged iterate, read from the solver's workspace before the
// orthonormalization, solves Psi_f + i dt/2 R(Psi_f) = Psi_{n+1/2}, with
// the norm taken over the whole band set (each rank's share allreduced).
func TestDistributedSolvesCNEquation(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	opt := core.DefaultPTCN()
	opt.TolDensity = 1e-10
	mpi.Run(2, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), false, kick, opt, dist.ExchangeOptions{})
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
		for _, dt := range []float64{1.0, 2.07} {
			next, _, err := s.Step(local, dt)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			psif, half := s.Iterate()
			s.Refresh(psif, s.Density(psif), s.Time)
			rf, _, err := s.Residual(psif)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			n2 := []float64{0}
			for i, r := range rf {
				f := psif[i] + complex(0, dt/2)*r - half[i]
				n2[0] += real(f)*real(f) + imag(f)*imag(f)
			}
			mpi.AllreduceSum(c, 9100, n2)
			if n := math.Sqrt(n2[0]); n > 1e-8 && c.Rank() == 0 {
				t.Errorf("dt %g: converged iterate misses the CN equation by %.3e, want <= 1e-8", dt, n)
			}
			local = next
		}
	})
}

// TestDistributedFailsFastOnNonFiniteDensityError: a NaN in one rank's
// block makes the allreduced density error NaN on every rank, and every
// rank's step ends after that first SCF iteration with the same error.
func TestDistributedFailsFastOnNonFiniteDensityError(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	psi0[5] = complex(math.NaN(), 0)
	mpi.Run(2, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), false, nil, core.DefaultPTCN(), dist.ExchangeOptions{})
		lo, hi := d.BandRange(c.Rank())
		_, stats, err := s.Step(wavefunc.Clone(psi0[lo*g.NG:hi*g.NG]), 1.0)
		if err == nil || !strings.Contains(err.Error(), "iteration 1") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("rank %d: step from a NaN state: err %v, want the non-finite density error of iteration 1", c.Rank(), err)
		}
		if stats.SCFIterations != 1 {
			t.Errorf("rank %d: step from a NaN state ran %d SCF iterations, want 1", c.Rank(), stats.SCFIterations)
		}
	})
}

// TestDistributedACEHoldCadence: the Jia & Lin cadence (-ace -mts 1)
// builds Xi from Psi_n once per step and holds it through the inner SCF,
// trading the per-iteration exchange construction for a controlled
// compression error on the iterates that leave the reference span. One
// step must converge and stay physically close to the exact propagation -
// the accuracy side of the PT-vs-PT+ACE trade-off the ablation benchmark
// times.
func TestDistributedACEHoldCadence(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	const steps, dt = 1, 1.0
	exact, eExact, _ := propagate(t, g, psi0, nb, true, 4, steps, dt, dist.ExchangeOptions{})
	held, eHeld, _ := propagate(t, g, psi0, nb, true, 4, steps, dt,
		dist.ExchangeOptions{ACE: true, MTSPeriod: 1})
	rhoExact := potential.Density(g, exact, nb, 2)
	rhoHeld := potential.Density(g, held, nb, 2)
	// The compression error scales with how far the inner iterates leave
	// span(Psi_n), i.e. with dt x kick; at this deliberately coarse test
	// discretization (dt = 1 au, A = 0.02) it measures ~5e-4.
	if d := potential.DensityDiff(g, rhoExact, rhoHeld, 32); d > 2e-3 {
		t.Errorf("held-ACE density deviates from exact by %g", d)
	}
	if d := math.Abs(eExact - eHeld); d > 2e-3 {
		t.Errorf("held-ACE energy deviates from exact by %g", d)
	}
}

// TestDistributedMTSAccuracy bounds the physics cost of multiple time
// stepping: an M-step cycle propagates the M-1 intermediate steps with the
// ACE operator held from the last outer step, so the deviation from
// the every-step hybrid reference must stay bounded - and grow with M. The
// tolerances are pinned at the test discretization (dt = 1 au, A = 0.02,
// Ecut = 3): the freeze error enters through dt x kick exactly like the
// held-ACE compression error (~5e-4 per step), accumulated over the cycle.
func TestDistributedMTSAccuracy(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	const steps, dt = 4, 1.0
	ref, eRef, jRef := propagate(t, g, psi0, nb, true, 4, steps, dt, dist.ExchangeOptions{})
	rhoRef := potential.Density(g, ref, nb, 2)
	for _, tc := range []struct {
		m   int
		tol float64
	}{
		{2, 4e-3},
		{4, 8e-3},
	} {
		got, e, j := propagate(t, g, psi0, nb, true, 4, steps, dt, dist.ExchangeOptions{ACE: true, MTSPeriod: tc.m})
		rho := potential.Density(g, got, nb, 2)
		if d := potential.DensityDiff(g, rhoRef, rho, 32); d > tc.tol {
			t.Errorf("M=%d: density deviates from every-step hybrid by %g (tol %g)", tc.m, d, tc.tol)
		}
		if d := math.Abs(e - eRef); d > tc.tol {
			t.Errorf("M=%d: energy deviates by %g (tol %g)", tc.m, d, tc.tol)
		}
		// The dipole observable of the kick response: the induced current.
		if d := math.Abs(j[2] - jRef[2]); d > tc.tol {
			t.Errorf("M=%d: current deviates by %g (tol %g)", tc.m, d, tc.tol)
		}
	}
}

// TestDistributedMTSCheckpointResume: interrupting an M = 4 cycle at step
// k and resuming from the saved state - cumulative phase plus the frozen
// exchange reference of the last outer step - must reproduce the
// uninterrupted trajectory to 1e-10. This is the contract that makes MTS
// production-safe: a job-allocation boundary cannot silently refresh the
// exchange early.
func TestDistributedMTSCheckpointResume(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	const m, dt, ranks = 4, 1.0, 2
	opt := dist.ExchangeOptions{ACE: true, MTSPeriod: m}
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}

	// Uninterrupted: 4 steps (one full cycle).
	full, eFull, _ := propagate(t, g, psi0, nb, true, ranks, 4, dt, opt)

	// Interrupted at k = 2 (mid-cycle): run 2 steps, capture the state a
	// checkpoint would carry, then resume a fresh solver from it.
	type saved struct {
		psi, phiRef []complex128
		phase       int
		time        float64
	}
	var ckp saved
	mpi.Run(ranks, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), true, kick, core.DefaultPTCN(), opt)
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
		for i := 0; i < 2; i++ {
			if local, _, err = s.Step(local, dt); err != nil {
				t.Errorf("rank %d step %d: %v", c.Rank(), i, err)
				return
			}
		}
		psi := d.Gather(local)
		ref := d.Gather(s.MTSRef())
		if c.Rank() == 0 {
			ckp = saved{
				psi:    wavefunc.Clone(psi),
				phiRef: wavefunc.Clone(ref),
				phase:  s.MTSPhase(),
				time:   s.Time,
			}
		}
	})
	if ckp.phase != 2 {
		t.Fatalf("after 2 of %d steps the cycle phase is %d, want 2", m, ckp.phase)
	}

	resumed := make([]complex128, nb*g.NG)
	var eResumed float64
	mpi.Run(ranks, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), true, kick, core.DefaultPTCN(), opt)
		s.Time = ckp.time
		lo, hi := d.BandRange(c.Rank())
		if err := s.ResumeMTS(ckp.phase, ckp.phiRef[lo*g.NG:hi*g.NG]); err != nil {
			t.Error(err)
			return
		}
		local := wavefunc.Clone(ckp.psi[lo*g.NG : hi*g.NG])
		for i := 2; i < 4; i++ {
			if local, _, err = s.Step(local, dt); err != nil {
				t.Errorf("rank %d step %d: %v", c.Rank(), i, err)
				return
			}
		}
		eb := s.TotalEnergy(local, s.Time)
		psi := d.Gather(local)
		if c.Rank() == 0 {
			copy(resumed, psi)
			eResumed = eb.Total()
		}
	})
	if d := wavefunc.MaxDiff(full, resumed); d > 1e-10 {
		t.Errorf("resumed mid-MTS-cycle trajectory deviates from uninterrupted by %g (tol 1e-10)", d)
	}
	if d := math.Abs(eFull - eResumed); d > 1e-10 {
		t.Errorf("resumed energy deviates by %g (tol 1e-10)", d)
	}

	// Resuming mid-cycle without the frozen reference must fail loudly on
	// every rank - never silently refresh the exchange early.
	mpi.Run(ranks, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), true, kick, core.DefaultPTCN(), opt)
		if err := s.ResumeMTS(2, nil); err == nil {
			t.Errorf("rank %d: mid-cycle resume without frozen reference accepted", c.Rank())
		}
	})
}

// TestDistributedHybridMatchesSerial checks the distributed hybrid path
// against the serial hybrid propagator: same screened exchange, same
// exchange attenuation of the semi-local functional. The serial operator
// runs the distributed exchange's pair fold (fock.PairStream.FoldPairs) and
// the same sphere dot for the energy, so on one rank the two are one solver
// bit for bit: state, energy and current.
func TestDistributedHybridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid propagation is slow")
	}
	g, psi0, nb := fixtureT(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{Hybrid: true, Params: xc.HSE06()})
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: kick}
	p := core.NewPTCN(sys, core.DefaultPTCN())
	ref, _, err := p.Step(wavefunc.Clone(psi0), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	refE := observe.Energy(sys, ref, p.Time).Total()
	refJ := observe.Current(sys, ref)
	refRho := potential.Density(g, ref, nb, 2)

	for _, ranks := range []int{1, 4} {
		got, e, j := propagate(t, g, psi0, nb, true, ranks, 1, 1.0, dist.ExchangeOptions{})
		if ranks == 1 {
			if d := wavefunc.MaxDiff(ref, got); d != 0 || e != refE || j != refJ {
				t.Errorf("ranks=1: not the serial bits: state max diff %g, energy %v vs %v, current %v vs %v", d, e, refE, j, refJ)
			}
		}
		rho := potential.Density(g, got, nb, 2)
		if d := potential.DensityDiff(g, refRho, rho, 32); d > 1e-6 {
			t.Errorf("ranks=%d: hybrid density differs from serial by %g", ranks, d)
		}
		if d := math.Abs(e - refE); d > 1e-6 {
			t.Errorf("ranks=%d: hybrid energy %.10f vs serial %.10f", ranks, e, refE)
		}
	}
}

// TestDistributedOrbitalNormsPreserved: the distributed Trsm
// orthonormalization must leave every gathered band normalized.
func TestDistributedOrbitalNormsPreserved(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	got, _, _ := propagate(t, g, psi0, nb, false, 4, 2, 1.5, dist.ExchangeOptions{})
	if e := wavefunc.OrthonormalityError(got, nb, g.NG); e > 1e-10 {
		t.Errorf("gathered band set orthonormality error %g", e)
	}
}

// TestKeptExchangeNeverServedStale: the V_X[Psi]Psi the energy observable
// leaves on the solver serves the next Step's first exchange application of
// the same block and nothing else. Every row runs its script twice on two
// ranks - with the energy evaluated where the script says, and without -
// and the final step must land on the same bits either way; the exchange
// spans of that step tell whether the kept product was taken (one
// application fewer) or, as each invalidation row demands, dropped.
func TestKeptExchangeNeverServedStale(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	const dt, ranks = 1.0, 2
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	type solver = dist.PTCNSolver
	step := func(s *solver, local []complex128) []complex128 {
		out, _, err := s.Step(local, dt)
		if err != nil {
			panic(err)
		}
		return out
	}
	exact := dist.ExchangeOptions{}
	for _, tc := range []struct {
		name string
		opt  dist.ExchangeOptions
		// script drives solver s from block local to the (solver, block) of
		// the final step, calling energy where the observable would run;
		// fresh builds a second solver on the same rank.
		script func(s *solver, local []complex128, energy func(*solver, []complex128), fresh func() *solver) (*solver, []complex128)
		kept   bool
	}{
		{"observed", exact, func(s *solver, local []complex128, energy func(*solver, []complex128), _ func() *solver) (*solver, []complex128) {
			energy(s, local)
			return s, local
		}, true},
		{"IonGeometryChanged", exact, func(s *solver, local []complex128, energy func(*solver, []complex128), _ func() *solver) (*solver, []complex128) {
			energy(s, local)
			s.IonGeometryChanged()
			return s, local
		}, false},
		{"ResumeMTS", dist.ExchangeOptions{ACE: true, MTSPeriod: 1}, func(s *solver, local []complex128, energy func(*solver, []complex128), _ func() *solver) (*solver, []complex128) {
			energy(s, local)
			if err := s.ResumeMTS(0, nil); err != nil {
				panic(err)
			}
			return s, local
		}, false},
		// The product lives on the solver that evaluated the energy; another
		// solver stepping the same storage has none to take.
		{"second solver on the same storage", exact, func(s *solver, local []complex128, energy func(*solver, []complex128), fresh func() *solver) (*solver, []complex128) {
			energy(s, local)
			return fresh(), local
		}, false},
		// A caller that keeps its state in one buffer: the inner MTS step
		// after the energy applies no exchange at all, so only the step's own
		// clearing of the mark keeps the next outer step's ace_build from
		// taking the product of what the buffer held two states ago.
		{"block reused in place", dist.ExchangeOptions{ACE: true, MTSPeriod: 2}, func(s *solver, buf []complex128, energy func(*solver, []complex128), _ func() *solver) (*solver, []complex128) {
			copy(buf, step(s, buf))
			energy(s, buf)
			copy(buf, step(s, buf))
			return s, buf
		}, false},
	} {
		run := func(observe bool) (psi []complex128, exchanges, scfIters int) {
			psi = make([]complex128, nb*g.NG)
			rec := trace.NewRecorder()
			mpi.Run(ranks, func(c *mpi.Comm) {
				c.SetTrace(rec.Track(c.Rank(), "rank"))
				d, err := dist.NewCtx(c, g, nb, 2)
				if err != nil {
					t.Error(err)
					return
				}
				fresh := func() *solver {
					h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
					return dist.NewPTCNSolver(d, h, xc.HSE06(), true, kick, core.DefaultPTCN(), tc.opt)
				}
				lo, hi := d.BandRange(c.Rank())
				s, local := tc.script(fresh(), wavefunc.Clone(psi0[lo*g.NG:hi*g.NG]), func(s *solver, local []complex128) {
					if observe {
						s.TotalEnergy(local, s.Time)
					}
				}, fresh)
				out, stats, err := s.Step(local, dt)
				if err != nil {
					t.Errorf("%s: rank %d: %v", tc.name, c.Rank(), err)
					return
				}
				full := d.Gather(out)
				if c.Rank() == 0 {
					copy(psi, full)
					scfIters = stats.SCFIterations
				}
			})
			spans := rec.Tracks()[0].Spans
			last := -1
			for i, sp := range spans {
				if sp.Name == "step" {
					last = i
				}
			}
			for _, sp := range spans {
				if sp.Name == "exchange" && sp.StartNs >= spans[last].StartNs {
					exchanges++
				}
			}
			return psi, exchanges, scfIters
		}
		bare, nBare, _ := run(false)
		got, nObs, scfIters := run(true)
		if d := wavefunc.MaxDiff(bare, got); d != 0 {
			t.Errorf("%s: the step depends on whether the energy was observed (max diff %g)", tc.name, d)
		}
		want := nBare
		if tc.kept {
			want--
		}
		if nObs != want {
			t.Errorf("%s: %d exchange applications in the final step (%d SCF iterations) after an energy evaluation, %d without; want %d",
				tc.name, nObs, scfIters, nBare, want)
		}
	}
}

// TestDistributedRK4BlowUpIsSymmetric: an RK4 step far past the stability
// limit fails on every rank, in the same step, with the blow-up error - it
// is decided on the allreduced density, so no rank leaves while its peer
// waits in a collective (its exit would fail that peer, and the run would
// report a Failure instead).
func TestDistributedRK4BlowUpIsSymmetric(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	const ranks, dt = 2, 4.0
	errs, steps := make([]error, ranks), make([]int, ranks)
	_, fail := mpi.RunTolerant(ranks, nil, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), false, kick, core.DefaultPTCN(), dist.ExchangeOptions{})
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
		r := c.Rank()
		for ; steps[r] < 100 && errs[r] == nil; steps[r]++ {
			local, _, errs[r] = s.StepRK4(local, dt)
		}
	})
	if fail != nil {
		t.Fatalf("a rank was left waiting on its peer: %v", fail)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "blew up") {
			t.Errorf("rank %d: error %v in step %d, want the blow-up error", r, err, steps[r])
		}
		if steps[r] != steps[0] {
			t.Errorf("rank %d failed at step %d, rank 0 at step %d", r, steps[r], steps[0])
		}
	}
}
