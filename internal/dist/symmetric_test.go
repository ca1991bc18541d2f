package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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
	return applyExchangeWith(t, g, xc.HSE06(), psi, nb, ranks, opt, oneSided)
}

// applyExchangeWith is applyExchange for the hybrid parameters hyb.
func applyExchangeWith(t *testing.T, g *grid.Grid, hyb xc.HybridParams, psi []complex128, nb, ranks int, opt ExchangeOptions, oneSided bool) (vx []complex128, solves []int64, stats *mpi.Stats) {
	t.Helper()
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
// fock.PairStream.FoldPairs over partners j >= i, band after band. It sets
// the worker count itself so the race job runs the pair-lane calls' static
// pencil split with the detector armed. The contract spans
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

// TestPairStreamBits pins the exchange's arithmetic, not only its
// tolerance: FockExchangeWS's gathered result, hashed, for ranks 1-4,
// nb 7, 8 and 16, the pair-symmetric and the one-sided fold, pinned - the
// adds into every accumulator element happen in one fixed pair order, and
// the pins hold that order through any rewrite of how the pairs are
// batched. Two workers must repeat run to run and, since the pair-lane
// calls split their passes by pencil, give the one-worker hash. The kernel
// is the unscreened one (no math.Exp, whose amd64 routine takes an FMA
// branch on some CPUs), so the pins apply on every amd64 build whose Go
// loops do not fuse multiply-add.
func TestPairStreamBits(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	g, _, _ := testGrid(t)
	hyb := xc.HybridParams{Alpha: 0.25}
	pinned := runtime.GOARCH == "amd64" && !fusesMulAdd()
	pins := map[string]string{
		"nb=7 ranks=1 oneSided=false":  "33fa660d529925e0",
		"nb=7 ranks=1 oneSided=true":   "33fa660d529925e0",
		"nb=7 ranks=2 oneSided=false":  "68c4f6569080fc17",
		"nb=7 ranks=2 oneSided=true":   "33fa660d529925e0",
		"nb=7 ranks=3 oneSided=false":  "81c686da620829a7",
		"nb=7 ranks=3 oneSided=true":   "33fa660d529925e0",
		"nb=7 ranks=4 oneSided=false":  "12b0659d3b539cf7",
		"nb=7 ranks=4 oneSided=true":   "33fa660d529925e0",
		"nb=8 ranks=1 oneSided=false":  "1949d32fdcfc6d01",
		"nb=8 ranks=1 oneSided=true":   "1949d32fdcfc6d01",
		"nb=8 ranks=2 oneSided=false":  "cc3e6a14dc55aa49",
		"nb=8 ranks=2 oneSided=true":   "1949d32fdcfc6d01",
		"nb=8 ranks=3 oneSided=false":  "6f28349461f364fd",
		"nb=8 ranks=3 oneSided=true":   "1949d32fdcfc6d01",
		"nb=8 ranks=4 oneSided=false":  "fe213db2e05b6edd",
		"nb=8 ranks=4 oneSided=true":   "1949d32fdcfc6d01",
		"nb=16 ranks=1 oneSided=false": "ff6a783e585d490b",
		"nb=16 ranks=1 oneSided=true":  "ff6a783e585d490b",
		"nb=16 ranks=2 oneSided=false": "524ded79d7a0a7d2",
		"nb=16 ranks=2 oneSided=true":  "ff6a783e585d490b",
		"nb=16 ranks=3 oneSided=false": "ef6cbd3cef7ef263",
		"nb=16 ranks=3 oneSided=true":  "ff6a783e585d490b",
		"nb=16 ranks=4 oneSided=false": "2491a67685b0d60c",
		"nb=16 ranks=4 oneSided=true":  "ff6a783e585d490b",
	}
	for _, nb := range []int{7, 8, 16} {
		psi := wavefunc.Random(g, nb, int64(60+nb))
		for ranks := 1; ranks <= 4; ranks++ {
			for _, oneSided := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					parallel.SetMaxWorkers(workers)
					name := fmt.Sprintf("nb=%d ranks=%d oneSided=%v", nb, ranks, oneSided)
					vx, _, _ := applyExchangeWith(t, g, hyb, psi, nb, ranks, ExchangeOptions{}, oneSided)
					if h := hashVec(vx); pinned && h != pins[name] {
						t.Errorf("%s workers=%d: hash %s, pinned %s", name, workers, h, pins[name])
					}
					if workers == 1 {
						continue
					}
					again, _, _ := applyExchangeWith(t, g, hyb, psi, nb, ranks, ExchangeOptions{}, oneSided)
					if d := wavefunc.MaxDiff(vx, again); d != 0 {
						t.Errorf("%s workers=2: repeated application differs by %g", name, d)
					}
				}
			}
		}
	}
}

func hashVec(v []complex128) string {
	h := sha256.New()
	for _, c := range v {
		binary.Write(h, binary.LittleEndian, [2]uint64{math.Float64bits(real(c)), math.Float64bits(imag(c))})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// fusesMulAdd reports whether this build rounds x*y + z once (arm64, or
// GOAMD64=v3): (1+2^-30)(1-2^-30) - 1 is 0 unfused and -2^-60 fused.
func fusesMulAdd() bool {
	x, y, z := fuseProbe[0], fuseProbe[1], fuseProbe[2]
	return x*y+z != 0
}

var fuseProbe = [3]float64{1 + 1.0/(1<<30), 1 - 1.0/(1<<30), -1}
