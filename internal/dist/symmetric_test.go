package dist

import (
	"fmt"
	"testing"

	"ptdft/internal/fock"
	"ptdft/internal/grid"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

var strategies = []ExchangeStrategy{BcastOverlapped, BcastSequential}

// applyExchange runs one FockExchange of the band set psi on `ranks` ranks
// and returns the gathered result, the Poisson solves each rank's contract
// spans counted, and the communication ledger. With oneSided every rank
// hands the call an equal-valued copy as reference, which is not
// selfReferenced and so takes the one-sided fold.
func applyExchange(t *testing.T, g *grid.Grid, psi []complex128, nb, ranks int, opt ExchangeOptions, oneSided bool) (vx []complex128, solves []int64, stats *mpi.Stats) {
	t.Helper()
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	vx = make([]complex128, nb*g.NG)
	rec := trace.NewRecorder()
	stats = mpi.Run(ranks, func(c *mpi.Comm) {
		c.SetTrace(rec.Track(c.Rank(), fmt.Sprintf("rank %d", c.Rank())))
		d, err := NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
		phi := local
		if oneSided {
			phi = wavefunc.Clone(local)
		}
		full := d.Gather(d.FockExchangeWS(phi, local, kernel, hyb.Alpha, opt, d.NewExchangeWorkspace()))
		if c.Rank() == 0 {
			copy(vx, full)
		}
	})
	solves = make([]int64, ranks)
	for _, tr := range rec.Tracks() {
		for _, sp := range tr.Spans {
			if sp.Name == "contract" {
				solves[tr.ID] += sp.N
			}
		}
	}
	return vx, solves, stats
}

// TestStaticTriangleMatchesOneSided: under both schedules a
// self-referenced application (the two-sided fold, rows returned to their
// owners) is the one-sided application and the serial operator's symmetric
// path to round-off - on even and uneven blocks, at one and two fold
// workers. On one rank it is the serial operator bit for bit: both run
// fock.FoldPairs over partners j >= i, band after band. It sets the worker
// count itself so the race job runs the static split and its ordered fold
// with the detector armed. The contract spans
// are the witness that every unordered pair is solved once: nb(nb+1)/2
// solves over all ranks against nb^2 one-sided, each rank within nbl/2 + 1
// of its even share nbl(nbl+1)/2 + (nb-nbl)nbl/2.
func TestStaticTriangleMatchesOneSided(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	g, _, _ := testGrid(t)
	total := func(solves []int64) (n int) {
		for _, s := range solves {
			n += int(s)
		}
		return n
	}
	for _, nb := range []int{8, 7} {
		psi := wavefunc.Random(g, nb, int64(40+nb))
		for _, workers := range []int{1, 2} {
			parallel.SetMaxWorkers(workers)
			want := make([]complex128, nb*g.NG)
			fock.NewOperator(g, xc.HSE06(), psi, nb).ApplyToReference(want)
			for _, ranks := range []int{1, 2, 3, 4} {
				for _, strat := range strategies {
					name := fmt.Sprintf("nb=%d workers=%d ranks=%d %v", nb, workers, ranks, strat)
					opt := ExchangeOptions{Strategy: strat}
					sym, symSolves, _ := applyExchange(t, g, psi, nb, ranks, opt, false)
					one, oneSolves, _ := applyExchange(t, g, psi, nb, ranks, opt, true)
					if d := wavefunc.MaxDiff(sym, one); d > 1e-12 {
						t.Errorf("%s: self-referenced differs from one-sided by %g", name, d)
					}
					if d := wavefunc.MaxDiff(sym, want); d > 1e-12 || ranks == 1 && d != 0 {
						t.Errorf("%s: self-referenced differs from fock.Operator.ApplyToReference by %g", name, d)
					}
					if n := total(oneSolves); n != nb*nb {
						t.Errorf("%s: one-sided application solved %d pairs, want %d", name, n, nb*nb)
					}
					if n := total(symSolves); n != nb*(nb+1)/2 {
						t.Errorf("%s: self-referenced application solved %d pairs, want %d", name, n, nb*(nb+1)/2)
					}
					for r, n := range symSolves {
						nbl := int64((r+1)*nb/ranks - r*nb/ranks)
						// Twice the distance from the even share, in integers.
						off := 2*n - nbl*(nbl+1) - (int64(nb)-nbl)*nbl
						if off < 0 {
							off = -off
						}
						if off > nbl+2 {
							t.Errorf("%s: rank %d (%d bands) solved %d pairs, more than nbl/2+1 off its even share", name, r, nbl, n)
						}
					}
				}
			}
		}
	}
}
