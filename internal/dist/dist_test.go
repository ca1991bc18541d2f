package dist

import (
	"math"
	"testing"
	"time"

	"ptdft/internal/fock"
	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/mpi"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// testGrid builds a small Si8 discretization shared by the tests. Random
// orthonormal bands stand in for converged orbitals: the decomposition and
// communication machinery is insensitive to where the coefficients come
// from.
func testGrid(t testing.TB) (*grid.Grid, []complex128, int) {
	t.Helper()
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 2)
	nb := cell.NumBands()
	return g, wavefunc.Random(g, nb, 7), nb
}

func TestBandRangePartitionInvariants(t *testing.T) {
	g, _, _ := testGrid(t)
	for _, tc := range []struct{ nb, ranks int }{
		{16, 1}, {16, 2}, {16, 4}, {16, 3}, {16, 5}, {16, 16}, {17, 4}, {97, 8},
	} {
		mpi.Run(tc.ranks, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, tc.nb, 2)
			if err != nil {
				t.Errorf("NewCtx(nb=%d, ranks=%d): %v", tc.nb, tc.ranks, err)
				return
			}
			if c.Rank() != 0 {
				return
			}
			prev := 0
			for r := 0; r < tc.ranks; r++ {
				lo, hi := d.BandRange(r)
				if lo != prev {
					t.Errorf("nb=%d ranks=%d: rank %d starts at %d, want %d (cover/disjoint)", tc.nb, tc.ranks, r, lo, prev)
				}
				if hi < lo {
					t.Errorf("nb=%d ranks=%d: rank %d range [%d,%d) not ordered", tc.nb, tc.ranks, r, lo, hi)
				}
				if w := hi - lo; w < tc.nb/tc.ranks || w > tc.nb/tc.ranks+1 {
					t.Errorf("nb=%d ranks=%d: rank %d owns %d bands, not balanced", tc.nb, tc.ranks, r, w)
				}
				for i := lo; i < hi; i++ {
					if own := d.bandOwner(i); own != r {
						t.Errorf("bandOwner(%d) = %d, want %d", i, own, r)
					}
				}
				prev = hi
			}
			if prev != tc.nb {
				t.Errorf("nb=%d ranks=%d: partition covers [0,%d), want [0,%d)", tc.nb, tc.ranks, prev, tc.nb)
			}
			// Same invariants for the G slab partition.
			prev = 0
			for r := 0; r < tc.ranks; r++ {
				lo, hi := d.GRange(r)
				if lo != prev || hi < lo {
					t.Errorf("GRange(%d) = [%d,%d), want contiguous from %d", r, lo, hi, prev)
				}
				prev = hi
			}
			if prev != g.NG {
				t.Errorf("G partition covers [0,%d), want [0,%d)", prev, g.NG)
			}
		})
	}
}

func TestNewCtxValidation(t *testing.T) {
	g, _, nb := testGrid(t)
	mpi.Run(2, func(c *mpi.Comm) {
		if _, err := NewCtx(c, g, nb, 3); err == nil {
			t.Error("dims=3 accepted")
		}
		if _, err := NewCtx(c, g, 0, 2); err == nil {
			t.Error("nb=0 accepted")
		}
		if _, err := NewCtx(c, g, 1, 2); err == nil {
			t.Error("more ranks than bands accepted")
		}
		if _, err := NewCtx(nil, g, nb, 2); err == nil {
			t.Error("nil communicator accepted")
		}
		if _, err := NewCtx(c, g, nb, 1); err != nil {
			t.Errorf("dims=1 rejected: %v", err)
		}
	})
}

func TestGatherRoundTrip(t *testing.T) {
	g, psi, nb := testGrid(t)
	for _, ranks := range []int{1, 2, 3, 4} {
		mpi.Run(ranks, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			lo, hi := d.BandRange(c.Rank())
			full := d.Gather(wavefunc.Clone(psi[lo*g.NG : hi*g.NG]))
			if len(full) != nb*g.NG {
				t.Errorf("rank %d: Gather returned %d coefficients, want %d", c.Rank(), len(full), nb*g.NG)
				return
			}
			for i := range full {
				if full[i] != psi[i] {
					t.Errorf("rank %d: Gather differs from source at %d", c.Rank(), i)
					return
				}
			}
		})
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	g, psi, nb := testGrid(t)
	for _, ranks := range []int{1, 2, 4} {
		mpi.Run(ranks, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			lo, hi := d.BandRange(c.Rank())
			local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
			gd := make([]complex128, d.NB*d.NumLocalG())
			tw := d.NewTransposeWorkspace()
			// Double precision round trip is exact.
			d.BandToGWS(gd, local, false, tw)
			back := d.GToBand(gd, false)
			if diff := wavefunc.MaxDiff(local, back); diff != 0 {
				t.Errorf("ranks=%d rank %d: double transpose round trip differs by %g", ranks, c.Rank(), diff)
			}
			// Single precision round trip loses only wire precision.
			d.BandToGWS(gd, local, true, tw)
			back = d.GToBand(gd, true)
			if diff := wavefunc.MaxDiff(local, back); diff > 1e-6 {
				t.Errorf("ranks=%d rank %d: single transpose round trip differs by %g", ranks, c.Rank(), diff)
			}
		})
	}
}

// TestFockExchangeMatchesSerialOperator checks both schedules against the
// serial fock.Operator on the gathered band set: identical reference data,
// so double precision must agree to accumulation-order round-off and single
// precision within wire precision - on even (4 ranks) and uneven (3 ranks)
// band blocks, and with a reference block distinct from the target (the
// one-sided fold a frozen MTS reference takes).
func TestFockExchangeMatchesSerialOperator(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	frozen := wavefunc.Random(g, nb, 11)
	serial := func(ref []complex128) []complex128 {
		want := make([]complex128, nb*g.NG)
		fock.NewOperator(g, hyb, ref, nb).Apply(want, psi, nb)
		return want
	}
	wantSelf, wantFrozen := serial(psi), serial(frozen)

	cases := []struct {
		name      string
		ranks     int
		opt       ExchangeOptions
		frozenRef bool
		tol       float64
	}{
		{"bcast", 4, ExchangeOptions{Strategy: BcastSequential}, false, 1e-12},
		{"overlap", 4, ExchangeOptions{Strategy: BcastOverlapped}, false, 1e-12},
		{"bcast_single", 4, ExchangeOptions{Strategy: BcastSequential, SinglePrecision: true}, false, 1e-5},
		{"overlap_uneven", 3, ExchangeOptions{}, false, 1e-12},
		{"overlap_uneven_single", 3, ExchangeOptions{SinglePrecision: true}, false, 1e-5},
		{"overlap_uneven_frozen", 3, ExchangeOptions{}, true, 1e-12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := wantSelf
			if tc.frozenRef {
				want = wantFrozen
			}
			got := make([]complex128, nb*g.NG)
			mpi.Run(tc.ranks, func(c *mpi.Comm) {
				d, err := NewCtx(c, g, nb, 2)
				if err != nil {
					t.Error(err)
					return
				}
				lo, hi := d.BandRange(c.Rank())
				local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
				phi := local
				if tc.frozenRef {
					phi = wavefunc.Clone(frozen[lo*g.NG : hi*g.NG])
				}
				vx := d.FockExchangeWS(phi, local, kernel, hyb.Alpha, tc.opt, d.NewExchangeWorkspace())
				full := d.Gather(vx)
				if c.Rank() == 0 {
					copy(got, full)
				}
			})
			if diff := wavefunc.MaxDiff(got, want); diff > tc.tol {
				t.Errorf("%s: distributed exchange differs from serial operator by %g (tol %g)", tc.name, diff, tc.tol)
			}
		})
	}
}

func TestParseStrategy(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
		}
		if s.String() != name {
			t.Errorf("ParseStrategy(%q).String() = %q", name, s.String())
		}
	}
	if _, err := ParseStrategy("banana"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestCommunicationIsMetered pins the exchange schedules to their
// collective classes: the reference bands bill to MPI_Bcast, nothing to
// Send/Recv, and single precision halves the shipped volume.
func TestCommunicationIsMetered(t *testing.T) {
	g, psi, nb := testGrid(t)
	// The pair symmetry changes who solves what, not what is shipped out: a
	// self-referenced application bills the one-sided application's Bcast
	// bytes, plus the mirrored rows going home - every rank returns one
	// sphere row per band it does not own, (NB - nbl) x NG x 16 B, in one
	// Alltoallv. The one-sided fold returns nothing.
	for _, strat := range strategies {
		_, _, sym := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: strat}, false)
		_, _, one := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: strat}, true)
		if sym.BytesFor(mpi.ClassBcast) == 0 || sym.BytesFor(mpi.ClassP2P) != 0 {
			t.Errorf("%v billed Bcast=%d P2P=%d", strat, sym.BytesFor(mpi.ClassBcast), sym.BytesFor(mpi.ClassP2P))
		}
		if sym.BytesFor(mpi.ClassBcast) != one.BytesFor(mpi.ClassBcast) {
			t.Errorf("%v: self-referenced application bills %d Bcast bytes, one-sided %d", strat, sym.BytesFor(mpi.ClassBcast), one.BytesFor(mpi.ClassBcast))
		}
		if got, want := sym.BytesFor(mpi.ClassAlltoallv), int64(4*(nb-nb/4)*g.NG*16); got != want {
			t.Errorf("%v: self-referenced application returns %d Alltoallv bytes, want %d", strat, got, want)
		}
		if one.BytesFor(mpi.ClassAlltoallv) != 0 {
			t.Errorf("%v: one-sided application bills %d Alltoallv bytes, want 0", strat, one.BytesFor(mpi.ClassAlltoallv))
		}
	}
	_, _, bc := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: BcastSequential}, false)
	_, _, bcS := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: BcastSequential, SinglePrecision: true}, false)
	ratio := float64(bc.BytesFor(mpi.ClassBcast)) / float64(bcS.BytesFor(mpi.ClassBcast))
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("single precision volume ratio %g, want 2", ratio)
	}
}

// TestExchangePipelinesDoNotInflateVolume: broadcast-ahead changes when
// payloads move, never how much moves. The overlapped pipeline must bill
// exactly the sequential schedule's bytes, and both return their mirrored
// rows through one Alltoallv of one sphere row per band a rank does not own.
func TestExchangePipelinesDoNotInflateVolume(t *testing.T) {
	g, psi, nb := testGrid(t)
	_, _, seq := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: BcastSequential}, false)
	_, _, ovl := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: BcastOverlapped}, false)
	if ovl.TotalBytes() != seq.TotalBytes() {
		t.Errorf("overlapped pipeline ships %d bytes, sequential %d", ovl.TotalBytes(), seq.TotalBytes())
	}
	for _, st := range []*mpi.Stats{seq, ovl} {
		if got, want := st.BytesFor(mpi.ClassAlltoallv), int64(4*(nb-nb/4)*g.NG*16); got != want {
			t.Errorf("return stage ships %d Alltoallv bytes, want %d", got, want)
		}
	}
}

// TestFetchPipelineForwardsFaults: a crash landing inside the overlapped
// fetch goroutine (which runs mpi calls off the rank's main goroutine) must
// be forwarded to the main goroutine and recovered by the tolerant runner -
// not kill the process, not hang.
func TestFetchPipelineForwardsFaults(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	p := &mpi.Perturb{
		Deadline: 1 * time.Second,
		Fault:    &mpi.Fault{Crashes: []mpi.CrashRankAt{{Rank: 1, AfterCalls: 3}}},
	}
	start := time.Now()
	_, fail := mpi.RunTolerant(4, p, func(c *mpi.Comm) {
		d, err := NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
		d.FockExchangeWS(local, local, kernel, hyb.Alpha, ExchangeOptions{Strategy: BcastOverlapped}, d.NewExchangeWorkspace())
	})
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("exchange under injected crash took %v", elapsed)
	}
	if fail == nil {
		t.Fatal("injected crash vanished")
	}
	found := false
	for _, r := range fail.Crashed {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("crashed ranks %v do not include rank 1", fail.Crashed)
	}
}
