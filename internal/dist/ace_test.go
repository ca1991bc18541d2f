package dist

import (
	"math"
	"strings"
	"testing"

	"ptdft/internal/core"
	"ptdft/internal/fock"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func siPots() map[int]*pseudo.Potential {
	return map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
}

// TestDistACEExactOnReference: the compression reproduces the exact
// operator on its own reference span, V_ACE Phi = V_X Phi, so applying the
// freshly built Xi to the reference block must match the distributed exact
// exchange to round-off - on every rank count.
func TestDistACEExactOnReference(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	for _, ranks := range []int{1, 2, 4} {
		mpi.Run(ranks, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			lo, hi := d.BandRange(c.Rank())
			local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
			ex := d.NewExchangeWorkspace()

			want := make([]complex128, len(local))
			copy(want, d.FockExchangeWS(local, local, kernel, hyb.Alpha, ExchangeOptions{}, ex))

			a := d.NewACE()
			if err := a.Rebuild(local, nil, kernel, hyb.Alpha, ExchangeOptions{}, ex); err != nil {
				t.Errorf("ranks=%d: %v", ranks, err)
				return
			}
			got := make([]complex128, len(local))
			a.Apply(got, local)
			if diff := wavefunc.MaxDiff(got, want); diff > 1e-10 {
				t.Errorf("ranks=%d rank %d: V_ACE Phi differs from V_X Phi by %g", ranks, c.Rank(), diff)
			}
		})
	}
}

// perRefreshACE steps a held-ACE solver with Xi rebuilt from the iterate at
// every residual: the per-refresh cadence, kept only as this oracle.
type perRefreshACE struct{ *PTCNSolver }

func (p perRefreshACE) Residual(local []complex128, first bool) ([]complex128, []complex128, error) {
	p.aceStale = true
	return p.PTCNSolver.Residual(local, first)
}

func (p perRefreshACE) Step(local []complex128, dt float64) ([]complex128, core.StepStats, error) {
	lo, _ := p.D.BandRange(p.D.C.Rank())
	return p.Advance(p, core.Bands{G: p.D.G, H: p.H, NB: p.D.NB, Lo: lo, Occ: p.Occ}, local, dt)
}

// TestDistributedACEMatchesExactStep: rebuilt at every residual, the ACE
// compression is applied only to its own reference span, where it
// reproduces the exact operator - so one hybrid PT-CN step through the
// distributed ACE must agree with the exact-exchange step to round-off
// (1e-10) on every rank count. This is the acceptance pin for the ACE data
// path: projections, Cholesky, slab triangular solve and both transposes
// all sit inside the compared step.
func TestDistributedACEMatchesExactStep(t *testing.T) {
	g, psi, nb := testGrid(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	for _, ranks := range []int{1, 2, 4} {
		exact := make([]complex128, nb*g.NG)
		ace := make([]complex128, nb*g.NG)
		var eExact, eACE float64
		for _, held := range []bool{false, true} {
			mpi.Run(ranks, func(c *mpi.Comm) {
				d, err := NewCtx(c, g, nb, 2)
				if err != nil {
					t.Error(err)
					return
				}
				h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
				opt, out, e := ExchangeOptions{}, exact, &eExact
				if held {
					opt, out, e = ExchangeOptions{ACE: true, MTSPeriod: 1}, ace, &eACE
				}
				s := NewPTCNSolver(d, h, xc.HSE06(), true, kick, core.DefaultPTCN(), opt)
				step := s.Step
				if held {
					step = perRefreshACE{s}.Step
				}
				lo, hi := d.BandRange(c.Rank())
				local, _, err := step(wavefunc.Clone(psi[lo*g.NG:hi*g.NG]), 1.0)
				if err != nil {
					t.Errorf("ranks=%d ace=%v: %v", ranks, held, err)
					return
				}
				eb := s.TotalEnergy(local, s.Time)
				full := d.Gather(local)
				if c.Rank() == 0 {
					copy(out, full)
					*e = eb.Total()
				}
			})
		}
		if d := wavefunc.MaxDiff(exact, ace); d > 1e-10 {
			t.Errorf("ranks=%d: ACE step differs from exact exchange by %g (tol 1e-10)", ranks, d)
		}
		if d := math.Abs(eExact - eACE); d > 1e-10 {
			t.Errorf("ranks=%d: ACE energy differs from exact by %g (tol 1e-10)", ranks, d)
		}
	}
}

// TestDistACEDegenerateSetFailsLoudly: a zero reference band makes the
// overlap singular; every rank must see the same descriptive Cholesky
// error - never a silent fallback.
func TestDistACEDegenerateSetFailsLoudly(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	mpi.Run(2, func(c *mpi.Comm) {
		d, err := NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
		if c.Rank() == 0 {
			for i := 0; i < g.NG; i++ {
				local[i] = 0
			}
		}
		a := d.NewACE()
		err = a.Rebuild(local, nil, kernel, hyb.Alpha, ExchangeOptions{}, d.NewExchangeWorkspace())
		if err == nil {
			t.Errorf("rank %d: degenerate reference set accepted", c.Rank())
			return
		}
		if !strings.Contains(err.Error(), "degenerate") {
			t.Errorf("rank %d: error not descriptive: %v", c.Rank(), err)
		}
	})
}

// TestDistStepAllocs pins the solver's inner-SCF hot loop - the PT residual
// with the distributed exchange (exact and ACE) plus the fixed-point
// assembly - at zero steady-state heap allocations per iteration. The pin
// runs on one rank with one worker: that isolates the caller-side
// discipline the step workspace provides, with no mailbox wire copies (the
// mpi layer's Send/Bcast copies model the interconnect and are exempt) and
// no goroutine fan-out (allocation at the edges, per DESIGN.md section 5).
// The iterations themselves always run: under -race they drive the
// lane-blocked SoA exchange path through every mode with the detector
// armed, and only the allocation counts (meaningless there - sync.Pool
// drops items under -race) are suspended.
func TestDistStepAllocs(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g, psi, nb := testGrid(t)
	for _, mode := range []struct {
		name string
		opt  ExchangeOptions
	}{
		{"exact", ExchangeOptions{}},
		// "ace" rebuilds Xi at every iteration (an outer step's first
		// residual); "ace_mts" applies the held operator (the cost that
		// dominates the inner iterations and the M-1 intermediate steps).
		{"ace", ExchangeOptions{ACE: true, MTSPeriod: 1}},
		{"ace_mts", ExchangeOptions{ACE: true, MTSPeriod: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			mpi.Run(1, func(c *mpi.Comm) {
				d, err := NewCtx(c, g, nb, 2)
				if err != nil {
					t.Error(err)
					return
				}
				h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
				s := NewPTCNSolver(d, h, xc.HSE06(), true, nil, core.DefaultPTCN(), mode.opt)
				local := wavefunc.Clone(psi)
				half := wavefunc.Clone(psi)
				rho := s.Density(local)
				s.Refresh(local, rho, 0)
				// Mark the compressed operator stale the way an outer step
				// would: every "ace" iteration rebuilds it, "ace_mts" only
				// the first.
				s.aceStale = true
				ihalf := complex(0, 0.5)
				iteration := func() {
					s.aceStale = s.aceStale || mode.name == "ace"
					rf, _, err := s.Residual(local, false)
					if err != nil {
						panic(err)
					}
					for i := range rf {
						rf[i] = half[i] - local[i] - ihalf*rf[i]
					}
				}
				// Warm up: workspaces allocate on first use.
				iteration()
				iteration()
				if a := testing.AllocsPerRun(3, iteration); a > 0 && !raceEnabled {
					t.Errorf("%s: inner SCF iteration allocates %.1f objects in steady state, want 0", mode.name, a)
				}
			})
		})
	}
}
