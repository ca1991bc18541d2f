package dist

import (
	"math"
	"testing"

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
			// Double precision round trip is exact.
			back := d.GToBand(d.BandToG(local, false), false)
			if diff := wavefunc.MaxDiff(local, back); diff != 0 {
				t.Errorf("ranks=%d rank %d: double transpose round trip differs by %g", ranks, c.Rank(), diff)
			}
			// Single precision round trip loses only wire precision.
			back = d.GToBand(d.BandToG(local, true), true)
			if diff := wavefunc.MaxDiff(local, back); diff > 1e-6 {
				t.Errorf("ranks=%d rank %d: single transpose round trip differs by %g", ranks, c.Rank(), diff)
			}
		})
	}
}

// TestFockExchangeMatchesSerialOperator checks all three strategies
// against the serial fock.Operator on the gathered band set: identical
// reference data, so double precision must agree to accumulation-order
// round-off and single precision within wire precision.
func TestFockExchangeMatchesSerialOperator(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	want := make([]complex128, nb*g.NG)
	fock.NewOperator(g, hyb, psi, nb).Apply(want, psi, nb)

	cases := []struct {
		name string
		opt  ExchangeOptions
		tol  float64
	}{
		{"bcast", ExchangeOptions{Strategy: BcastSequential}, 1e-12},
		{"overlap", ExchangeOptions{Strategy: BcastOverlapped}, 1e-12},
		{"roundrobin", ExchangeOptions{Strategy: RoundRobin}, 1e-11},
		{"bcast_single", ExchangeOptions{Strategy: BcastSequential, SinglePrecision: true}, 1e-5},
		{"steal", ExchangeOptions{Strategy: Steal}, 1e-12},
		{"steal_chunk1", ExchangeOptions{Strategy: Steal, StealChunk: 1}, 1e-12},
		{"steal_single", ExchangeOptions{Strategy: Steal, SinglePrecision: true}, 1e-5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]complex128, nb*g.NG)
			mpi.Run(4, func(c *mpi.Comm) {
				d, err := NewCtx(c, g, nb, 2)
				if err != nil {
					t.Error(err)
					return
				}
				lo, hi := d.BandRange(c.Rank())
				local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
				vx := d.FockExchange(local, local, kernel, hyb.Alpha, tc.opt)
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

// TestCommunicationIsMetered pins the exchange strategies to their
// collective classes: broadcasts bill to MPI_Bcast, the ring to Send/Recv,
// and single precision halves the shipped volume.
func TestCommunicationIsMetered(t *testing.T) {
	g, psi, nb := testGrid(t)
	run := func(opt ExchangeOptions) *mpi.Stats {
		_, _, stats := applyExchange(t, g, psi, nb, 4, opt, false)
		return stats
	}
	bc := run(ExchangeOptions{Strategy: BcastSequential})
	if bc.BytesFor(mpi.ClassBcast) == 0 || bc.BytesFor(mpi.ClassP2P) != 0 {
		t.Errorf("bcast strategy billed Bcast=%d P2P=%d", bc.BytesFor(mpi.ClassBcast), bc.BytesFor(mpi.ClassP2P))
	}
	rr := run(ExchangeOptions{Strategy: RoundRobin})
	if rr.BytesFor(mpi.ClassP2P) == 0 || rr.BytesFor(mpi.ClassBcast) != 0 {
		t.Errorf("roundrobin strategy billed Bcast=%d P2P=%d", rr.BytesFor(mpi.ClassBcast), rr.BytesFor(mpi.ClassP2P))
	}
	// The pair symmetry changes who solves what, not what is shipped out: a
	// self-referenced application bills the one-sided application's Bcast (or
	// ring) bytes, plus the mirrored rows going home - every rank returns one
	// sphere row per band it does not own, (NB - nbl) x NG x 16 B, in one
	// Alltoallv. The one-sided fold returns nothing.
	for _, strat := range staticStrategies {
		_, _, sym := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: strat}, false)
		_, _, one := applyExchange(t, g, psi, nb, 4, ExchangeOptions{Strategy: strat}, true)
		for _, class := range []mpi.OpClass{mpi.ClassBcast, mpi.ClassP2P} {
			if sym.BytesFor(class) != one.BytesFor(class) {
				t.Errorf("%v: self-referenced application bills %d %v bytes, one-sided %d", strat, sym.BytesFor(class), class, one.BytesFor(class))
			}
		}
		if got, want := sym.BytesFor(mpi.ClassAlltoallv), int64(4*(nb-nb/4)*g.NG*16); got != want {
			t.Errorf("%v: self-referenced application returns %d Alltoallv bytes, want %d", strat, got, want)
		}
		if one.BytesFor(mpi.ClassAlltoallv) != 0 {
			t.Errorf("%v: one-sided application bills %d Alltoallv bytes, want 0", strat, one.BytesFor(mpi.ClassAlltoallv))
		}
	}
	bcS := run(ExchangeOptions{Strategy: BcastSequential, SinglePrecision: true})
	ratio := float64(bc.BytesFor(mpi.ClassBcast)) / float64(bcS.BytesFor(mpi.ClassBcast))
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("single precision volume ratio %g, want 2", ratio)
	}
	// The steal schedule broadcasts the same nb reference bands over the
	// same trees as bcast, claims chunks over the RMA counter, and ships its
	// remote contributions in one Alltoallv; nothing bills to P2P.
	sl := run(ExchangeOptions{Strategy: Steal})
	if sl.BytesFor(mpi.ClassBcast) != bc.BytesFor(mpi.ClassBcast) {
		t.Errorf("steal Bcast bytes = %d, want bcast's %d", sl.BytesFor(mpi.ClassBcast), bc.BytesFor(mpi.ClassBcast))
	}
	if sl.BytesFor(mpi.ClassRMA) == 0 || sl.CallsFor(mpi.ClassRMA) != sl.BytesFor(mpi.ClassRMA)/8 {
		t.Errorf("steal RMA accounting: bytes=%d calls=%d", sl.BytesFor(mpi.ClassRMA), sl.CallsFor(mpi.ClassRMA))
	}
	if sl.BytesFor(mpi.ClassAlltoallv) == 0 || sl.BytesFor(mpi.ClassP2P) != 0 {
		t.Errorf("steal strategy billed Alltoallv=%d P2P=%d", sl.BytesFor(mpi.ClassAlltoallv), sl.BytesFor(mpi.ClassP2P))
	}
}
