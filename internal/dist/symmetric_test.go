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

// applyExchange runs one FockExchange of the band set psi on `ranks` ranks
// and returns the gathered result, the Poisson solves each rank's contract
// spans counted, and the communication ledger.
func applyExchange(t *testing.T, g *grid.Grid, psi []complex128, nb, ranks int) (vx []complex128, solves []int64, stats *mpi.Stats) {
	t.Helper()
	return applyExchangeWith(t, g, xc.HSE06(), psi, nb, ranks)
}

// applyExchangeWith is applyExchange for the hybrid parameters hyb.
func applyExchangeWith(t *testing.T, g *grid.Grid, hyb xc.HybridParams, psi []complex128, nb, ranks int) (vx []complex128, solves []int64, stats *mpi.Stats) {
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
		full := d.Gather(d.FockExchangeWS(local, local, kernel, hyb.Alpha, ExchangeOptions{}, d.NewExchangeWorkspace()))
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

// TestStaticTriangleMatchesSerial: the distributed application (the
// two-sided fold, rows returned to their owners) is the serial operator's
// symmetric path to round-off - on even and uneven blocks, at one and two
// fold workers. On one rank it is the serial operator bit for bit: both run
// fock.PairStream.FoldPairs over partners j >= i, band after band. It sets
// the worker count itself so the race job runs the pair-lane calls' static
// pencil split with the detector armed. The contract spans are the witness
// that every unordered pair is solved once: nb(nb+1)/2 solves over all
// ranks, each rank within nbl/2 + 1 of its even share
// nbl(nbl+1)/2 + (nb-nbl)nbl/2.
func TestStaticTriangleMatchesSerial(t *testing.T) {
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
				name := fmt.Sprintf("nb=%d workers=%d ranks=%d", nb, workers, ranks)
				got, solves, _ := applyExchange(t, g, psi, nb, ranks)
				if d := wavefunc.MaxDiff(got, want); d > 1e-12 || ranks == 1 && d != 0 {
					t.Errorf("%s: differs from fock.Operator.ApplyToReference by %g", name, d)
				}
				if n := total(solves); n != nb*(nb+1)/2 {
					t.Errorf("%s: solved %d pairs, want %d", name, n, nb*(nb+1)/2)
				}
				for r, n := range solves {
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

// TestPairStreamBits pins the exchange's arithmetic, not only its
// tolerance: FockExchangeWS's gathered result, hashed, for ranks 1-4 and
// nb 7, 8 and 16, pinned - the adds into every accumulator element happen
// in one fixed pair order, and the pins hold that order through any
// rewrite of how the pairs are batched. Two workers must repeat run to run and, since the pair-lane
// calls split their passes by pencil, give the one-worker hash. The kernel
// is the unscreened one (no math.Exp, whose amd64 routine takes an FMA
// branch on some CPUs), and the exchange's own loops round every product
// on its own (float64(...)), so the pins apply on every amd64 build,
// GOAMD64=v3 included (CI runs it there).
func TestPairStreamBits(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	g, _, _ := testGrid(t)
	hyb := xc.HybridParams{Alpha: 0.25}
	pinned := runtime.GOARCH == "amd64"
	pins := map[string]string{
		"nb=7 ranks=1":  "33fa660d529925e0",
		"nb=7 ranks=2":  "68c4f6569080fc17",
		"nb=7 ranks=3":  "81c686da620829a7",
		"nb=7 ranks=4":  "12b0659d3b539cf7",
		"nb=8 ranks=1":  "1949d32fdcfc6d01",
		"nb=8 ranks=2":  "cc3e6a14dc55aa49",
		"nb=8 ranks=3":  "6f28349461f364fd",
		"nb=8 ranks=4":  "fe213db2e05b6edd",
		"nb=16 ranks=1": "ff6a783e585d490b",
		"nb=16 ranks=2": "524ded79d7a0a7d2",
		"nb=16 ranks=3": "ef6cbd3cef7ef263",
		"nb=16 ranks=4": "2491a67685b0d60c",
	}
	for _, nb := range []int{7, 8, 16} {
		psi := wavefunc.Random(g, nb, int64(60+nb))
		for ranks := 1; ranks <= 4; ranks++ {
			for _, workers := range []int{1, 2} {
				parallel.SetMaxWorkers(workers)
				name := fmt.Sprintf("nb=%d ranks=%d", nb, ranks)
				vx, _, _ := applyExchangeWith(t, g, hyb, psi, nb, ranks)
				if h := hashVec(vx); pinned && h != pins[name] {
					t.Errorf("%s workers=%d: hash %s, pinned %s", name, workers, h, pins[name])
				}
				if workers == 1 {
					continue
				}
				again, _, _ := applyExchangeWith(t, g, hyb, psi, nb, ranks)
				if d := wavefunc.MaxDiff(vx, again); d != 0 {
					t.Errorf("%s workers=2: repeated application differs by %g", name, d)
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
