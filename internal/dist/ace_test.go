package dist

import (
	"strings"
	"testing"

	"ptdft/internal/core"
	"ptdft/internal/fock"
	"ptdft/internal/hamiltonian"
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
// exchange to round-off - on every rank count and under both schedules.
func TestDistACEExactOnReference(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	for _, ranks := range []int{1, 2, 4} {
		for _, strat := range strategies {
			opt := ExchangeOptions{Strategy: strat}
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
				copy(want, d.FockExchangeWS(local, local, kernel, hyb.Alpha, opt, ex))

				a := d.NewACE()
				if err := a.Rebuild(local, nil, kernel, hyb.Alpha, opt, ex); err != nil {
					t.Errorf("ranks=%d %v: %v", ranks, strat, err)
					return
				}
				got := make([]complex128, len(local))
				a.Apply(got, local)
				if diff := wavefunc.MaxDiff(got, want); diff > 1e-10 {
					t.Errorf("ranks=%d %v rank %d: V_ACE Phi differs from V_X Phi by %g", ranks, strat, c.Rank(), diff)
				}
			})
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
		{"exact_bcast", ExchangeOptions{Strategy: BcastSequential}},
		{"ace", ExchangeOptions{Strategy: BcastSequential, ACE: true}},
		// The MTS hold cadences: the frozen-operator residual path (the
		// cost that dominates the M-1 intermediate steps) must stay
		// zero-alloc too.
		{"ace_mts", ExchangeOptions{Strategy: BcastSequential, ACE: true, MTSPeriod: 4}},
		{"exact_mts", ExchangeOptions{Strategy: BcastSequential, MTSPeriod: 4}},
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
				// Prime the hold-cadence state the way an outer step
				// would: mark the compressed operator stale and freeze
				// the exact-path reference at Psi_n.
				if s.Ex.MTSPeriod > 0 {
					s.aceStale = true
					s.freezeRef(local)
				}
				ihalf := complex(0, 0.5)
				iteration := func() {
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
