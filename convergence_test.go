// Properties of the preconditioned Crank-Nicolson fixed point that do not
// depend on the path the mixer takes to it: time reversibility of the
// converged step (ROADMAP item 6) and the SCF iteration counts the
// preconditioner buys (item 10), pinned as the exact numbers each
// configuration gives.
package ptdft_test

import (
	"math"
	"slices"
	"testing"

	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/linalg"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
	"ptdft/internal/sim"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// projectorDistance returns ||P_b - P_a||_F for the projectors of two
// orthonormal nb-band sets, as sqrt(2) ||(1 - P_a) b||_F: the gauge drops
// out and nothing is subtracted from 1.
func projectorDistance(a, b []complex128, nb, ng int) float64 {
	s := make([]complex128, nb*nb)
	linalg.Overlap(s, a, b, nb, nb, ng)
	pb := make([]complex128, nb*ng)
	linalg.ApplyMatrix(pb, a, s, nb, nb, ng)
	var n2 float64
	for i, v := range pb {
		d := b[i] - v
		n2 += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(2 * n2)
}

// TestPTCNReversible steps forward by dt and then by -dt under a
// time-independent Hamiltonian (no field, and the constant vector potential
// a kick leaves behind). Crank-Nicolson is symmetric in time, so the
// density matrix comes back to where it started, up to the tolerance both
// implicit solves stopped at; a fixed point that converged anywhere but on
// the CN equation does not.
func TestPTCNReversible(t *testing.T) {
	g, psi0, nb := fixtureT(t)
	opt := core.DefaultPTCN()
	const dt = 1.0
	limit := 10 * opt.TolDensity
	for _, tc := range []struct {
		name  string
		field laser.Field
	}{
		{"field-free", nil},
		{"constant kick", &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}},
	} {
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		p := core.NewPTCN(&core.System{G: g, H: h, NB: nb, Occ: 2, Field: tc.field}, opt)
		psi := wavefunc.Clone(psi0)
		var err error
		for _, step := range []float64{dt, -dt} {
			if psi, _, err = p.Step(psi, step); err != nil {
				t.Fatalf("serial LDA, %s, step %g: %v", tc.name, step, err)
			}
		}
		if d := projectorDistance(psi0, psi, nb, g.NG); d > limit {
			t.Errorf("serial LDA, %s: ||P_back - P_0|| = %.3e, want <= %.1e", tc.name, d, limit)
		}

		back := make([]complex128, nb*g.NG)
		mpi.Run(2, func(c *mpi.Comm) {
			d, err := dist.NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
			s := dist.NewPTCNSolver(d, h, xc.HSE06(), true, tc.field, opt, dist.ExchangeOptions{})
			lo, hi := d.BandRange(c.Rank())
			local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
			for _, step := range []float64{dt, -dt} {
				if local, _, err = s.Step(local, step); err != nil {
					t.Errorf("2-rank hybrid, %s, rank %d, step %g: %v", tc.name, c.Rank(), step, err)
					return
				}
			}
			if full := d.Gather(local); c.Rank() == 0 {
				copy(back, full)
			}
		})
		if d := projectorDistance(psi0, back, nb, g.NG); d > limit {
			t.Errorf("2-rank hybrid, %s: ||P_back - P_0|| = %.3e, want <= %.1e", tc.name, d, limit)
		}
	}
}

// TestSCFIterationsPerStep pins what the preconditioned fixed point costs,
// in the one unit that repeats to the last digit on any machine. The parent
// of PR 24 (plain Anderson on the raw residual, beta 0.4) needed 8 or 9
// iterations on the three 24 as rows and 12 to 18 on the 50 as row.
func TestSCFIterationsPerStep(t *testing.T) {
	si8 := sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3, DtAs: 24, Steps: 4, Kick: 0.02}
	exact, aceMTS, paper := si8, si8, si8
	exact.Hybrid, exact.Ranks = true, 2
	aceMTS.Hybrid, aceMTS.Ranks, aceMTS.ACE, aceMTS.MTS = true, 2, true, 4
	paper.Ecut, paper.DtAs, paper.Steps, paper.Kick, paper.PulseE0 = 6, 50, 6, 0, 0.02
	for _, tc := range []struct {
		name  string
		spec  sim.Spec
		iters []int
		max   int
	}{
		{"serial LDA, 24 as", si8, []int{5, 5, 5, 5}, 5},
		{"2-rank exact, 24 as", exact, []int{5, 5, 5, 5}, 5},
		{"2-rank ACE MTS 4, 24 as", aceMTS, []int{5, 5, 4, 4}, 5},
		{"serial LDA, Ecut 6, 50 as, 0.02 pulse", paper, []int{6, 7, 8, 8, 9, 9}, 10},
	} {
		spec := tc.spec
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		gs, err := sim.GroundState(&spec)
		if err != nil {
			t.Fatalf("%s: ground state: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2} {
			prev := parallel.SetMaxWorkers(workers)
			res, err := sim.Run(&spec, sim.Options{Ground: gs})
			parallel.SetMaxWorkers(prev)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			var got []int
			for _, s := range res.Samples {
				got = append(got, s.SCFIters)
			}
			if !slices.Equal(got, tc.iters) {
				t.Errorf("%s, %d workers: SCF iterations per step %v, pinned %v", tc.name, workers, got, tc.iters)
			}
			if m := slices.Max(got); m > tc.max {
				t.Errorf("%s, %d workers: %d SCF iterations in one step, want <= %d", tc.name, workers, m, tc.max)
			}
		}
	}
}
