package dist

import (
	"fmt"
	"testing"
	"time"

	"ptdft/internal/core"
	"ptdft/internal/fock"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
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
		if _, err := NewCtx(c, g, nb, 1); err == nil {
			t.Error("dims=1 accepted")
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
			// The round trip is exact.
			d.BandToGWS(gd, local, false, tw)
			back := make([]complex128, len(local))
			d.GToBandWS(back, gd, false, tw)
			if diff := wavefunc.MaxDiff(local, back); diff != 0 {
				t.Errorf("ranks=%d rank %d: transpose round trip differs by %g", ranks, c.Rank(), diff)
			}
		})
	}
}

// TestFockExchangeMatchesSerialOperator checks the exchange against the
// serial fock.Operator on the gathered band set: identical reference data,
// so it must agree to accumulation-order round-off - on even (4 ranks) and
// uneven (3 ranks) band blocks.
func TestFockExchangeMatchesSerialOperator(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	want := make([]complex128, nb*g.NG)
	fock.NewOperator(g, hyb, psi, nb).Apply(want, psi, nb)
	for _, tc := range []struct {
		name  string
		ranks int
	}{{"overlap", 4}, {"overlap_uneven", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _ := applyExchange(t, g, psi, nb, tc.ranks)
			if diff := wavefunc.MaxDiff(got, want); diff > 1e-12 {
				t.Errorf("%s: distributed exchange differs from serial operator by %g (tol 1e-12)", tc.name, diff)
			}
		})
	}
}

// TestFockExchangeRefusesOtherWires: the exchange folds unordered pairs, so
// it takes one block as reference and target on the double-precision wire
// and panics on anything else - a reference that is another block of equal
// values, or the single-precision option bench/ can still spell - and so
// do the transposes on a single-precision wire.
func TestFockExchangeRefusesOtherWires(t *testing.T) {
	g, psi, nb := testGrid(t)
	kernel := fock.BuildKernel(g, xc.HSE06())
	mpi.Run(1, func(c *mpi.Comm) {
		d, err := NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		local := wavefunc.Clone(psi)
		gd := make([]complex128, nb*g.NG)
		for name, call := range map[string]func(){
			"two blocks": func() {
				d.FockExchangeWS(wavefunc.Clone(local), local, kernel, 0.25, ExchangeOptions{}, d.NewExchangeWorkspace())
			},
			"single precision": func() {
				d.FockExchangeWS(local, local, kernel, 0.25, ExchangeOptions{SinglePrecision: true}, d.NewExchangeWorkspace())
			},
			"BandToGWS single": func() { d.BandToGWS(gd, local, true, d.NewTransposeWorkspace()) },
			"GToBandWS single": func() { d.GToBandWS(local, gd, true, d.NewTransposeWorkspace()) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", name)
					}
				}()
				call()
			}()
		}
	})
}

// TestCommunicationIsMetered pins the exchange to its collective classes:
// the reference bands bill to MPI_Bcast, and the mirrored rows going
// home - every rank returns one sphere row per band it does not own,
// (NB - nbl) x NG x 16 B - to one Alltoallv.
func TestCommunicationIsMetered(t *testing.T) {
	g, psi, nb := testGrid(t)
	_, _, stats := applyExchange(t, g, psi, nb, 4)
	if stats.BytesFor(mpi.ClassBcast) == 0 {
		t.Error("the exchange billed no Bcast bytes")
	}
	if got, want := stats.BytesFor(mpi.ClassAlltoallv), int64(4*(nb-nb/4)*g.NG*16); got != want {
		t.Errorf("application returns %d Alltoallv bytes, want %d", got, want)
	}
}

// TestExchangePipelinesDoNotInflateVolume: the exchange's byte-count pin.
// The broadcast loop must bill exactly one tree broadcast per reference
// band - every other rank receives it once - and return the mirrored rows
// through one Alltoallv of one sphere row per band a rank does not own; no
// other exchange traffic (the test's gather bills Allgatherv).
func TestExchangePipelinesDoNotInflateVolume(t *testing.T) {
	g, psi, nb := testGrid(t)
	const ranks = 4
	_, _, ovl := applyExchange(t, g, psi, nb, ranks)
	row := int64(g.NG * 16)
	if got, want := ovl.BytesFor(mpi.ClassBcast), int64(nb*(ranks-1))*row; got != want {
		t.Errorf("overlapped pipeline broadcasts %d bytes, want %d", got, want)
	}
	ret := int64(ranks*(nb-nb/ranks)) * row
	if got := ovl.BytesFor(mpi.ClassAlltoallv); got != ret {
		t.Errorf("return stage ships %d Alltoallv bytes, want %d", got, ret)
	}
	if ar := ovl.BytesFor(mpi.ClassAllreduce); ar != 0 {
		t.Errorf("exchange bills %d Allreduce bytes, want none", ar)
	}
}

// panicField is a kick whose vector potential panics at its n-th call:
// a plain bug on one rank, with no injection hook in the runtime.
type panicField struct {
	laser.Kick
	n, calls int
}

func (f *panicField) A(t float64) [3]float64 {
	if f.calls++; f.calls == f.n {
		panic(fmt.Sprintf("field bug at call %d", f.n))
	}
	return f.Kick.A(t)
}

// TestHybridStepPanicIsReraised: a plain panic on one rank of a 4-rank
// hybrid PT-CN step does not hang its peers. Rank 1's field panics at its
// second call, in the step's first Refresh, after the density Allreduce;
// the peers go on into the first H application, whose band-to-G transpose
// waits for rank 1's slice. Each peer raises a peer loss there, and
// mpi.Run re-raises rank 1's own panic, the root cause, within the bound.
func TestHybridStepPanicIsReraised(t *testing.T) {
	g, psi, nb := testGrid(t)
	const ranks, victim, bound = 4, 1, 20 * time.Second
	lost := make([]any, ranks)
	raised := make(chan any, 1)
	go func() {
		defer func() { raised <- recover() }()
		mpi.Run(ranks, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			field := &panicField{Kick: laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}}
			if c.Rank() == victim {
				field.n = 2
			}
			h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
			s := NewPTCNSolver(d, h, xc.HSE06(), true, field, core.DefaultPTCN(), ExchangeOptions{})
			lo, hi := d.BandRange(c.Rank())
			defer func() {
				if lost[c.Rank()] = recover(); lost[c.Rank()] != nil {
					panic(lost[c.Rank()])
				}
			}()
			if _, _, err := s.Step(wavefunc.Clone(psi[lo*g.NG:hi*g.NG]), 1.0); err != nil {
				t.Error(err)
			}
		})
	}()
	var p any
	select {
	case p = <-raised:
	case <-time.After(bound):
		t.Fatalf("mpi.Run had not returned %v after rank %d panicked: its peers hang", bound, victim)
	}
	if want := fmt.Sprintf("mpi: rank %d panicked: field bug at call 2", victim); fmt.Sprint(p) != want {
		t.Fatalf("mpi.Run raised %v, want %q", p, want)
	}
	for r, v := range lost {
		if r == victim {
			continue
		}
		pl, ok := v.(*mpi.PeerLostError)
		if !ok {
			t.Errorf("rank %d raised %v, want a *mpi.PeerLostError", r, v)
			continue
		}
		if want := fmt.Sprintf("MPI_Alltoallv receive tag %d", tagBandToG); pl.Peer != victim || pl.Op != want {
			t.Errorf("rank %d lost rank %d in %q, want rank %d in the band-to-G transpose (%s)", r, pl.Peer, pl.Op, victim, want)
		}
	}
}
