// The sched experiment measures the two exchange schedules on the real
// distributed code path (internal/dist over the goroutine MPI runtime)
// instead of the calibrated Summit model: the sequential broadcast against
// the overlapped pipeline under NIC delay injected through mpi.RunPerturbed
// (the paper's optimization 5 by real execution), and the weak-scaling cost
// per pair solve.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ptdft/internal/dist"
	"ptdft/internal/fock"
	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// schedWall times `reps` applications of the distributed exchange on
// `ranks` ranks under the given perturbation, returning the steady-state
// wall time per application (workspaces warmed before the clock starts).
func schedWall(g *grid.Grid, psi []complex128, nb, ranks int, opt dist.ExchangeOptions, p *mpi.Perturb, reps int, rec *trace.Recorder) time.Duration {
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	var el atomic.Int64
	mpi.RunPerturbed(ranks, p, func(c *mpi.Comm) {
		// Every measured world shares per-rank tracks (Track is idempotent
		// per id), so one -tracefile covers the whole sweep in sequence.
		c.SetTrace(rec.Track(c.Rank(), fmt.Sprintf("rank %d", c.Rank())))
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			panic(err)
		}
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
		ex := d.NewExchangeWorkspace()
		d.FockExchangeWS(local, local, kernel, hyb.Alpha, opt, ex) // warm
		c.Barrier()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			d.FockExchangeWS(local, local, kernel, hyb.Alpha, opt, ex)
		}
		c.Barrier()
		if c.Rank() == 0 {
			el.Store(int64(time.Since(t0)))
		}
	})
	return time.Duration(el.Load()) / time.Duration(reps)
}

func sched(rec *trace.Recorder) {
	// One worker per rank isolates the schedule under measurement: rank-
	// level overlap, not node-level thread fan-out.
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 2)
	nb := cell.NumBands()
	psi := wavefunc.Random(g, nb, 7)
	const reps = 3

	header(fmt.Sprintf("Sched A: NIC delay on every link, 8 ranks, Si8 nb=%d (ms per exchange)", nb))
	fmt.Printf("%-12s %12v %12v %12s\n", "delay", dist.BcastSequential, dist.BcastOverlapped, "overlap win")
	for _, d := range []time.Duration{0, 100 * time.Microsecond, 400 * time.Microsecond} {
		d := d
		var p *mpi.Perturb
		if d > 0 {
			p = &mpi.Perturb{WireDelay: func(src, dst int, bytes int64) time.Duration { return d }}
		}
		bc := schedWall(g, psi, nb, 8, dist.ExchangeOptions{Strategy: dist.BcastSequential}, p, reps, rec)
		ov := schedWall(g, psi, nb, 8, dist.ExchangeOptions{Strategy: dist.BcastOverlapped}, p, reps, rec)
		fmt.Printf("%-12v %12.2f %12.2f %11.2fx\n", d, float64(bc)/1e6, float64(ov)/1e6, float64(bc)/float64(ov))
	}

	header("Sched B: weak scaling, nb = 4 x ranks, overlap, no perturbation")
	fmt.Printf("%10s %8s %14s %14s\n", "ranks", "bands", "ms/exchange", "us/pair solve")
	for _, ranks := range []int{1, 2, 4, 8} {
		wnb := 4 * ranks
		wpsi := wavefunc.Random(g, wnb, 7)
		ov := schedWall(g, wpsi, wnb, ranks, dist.ExchangeOptions{}, nil, reps, rec)
		// Self-referenced: each unordered pair is solved once.
		pairs := float64(wnb*(wnb+1)) / 2 / float64(ranks)
		fmt.Printf("%10d %8d %14.2f %14.1f\n", ranks, wnb, float64(ov)/1e6, float64(ov)/1e3/pairs)
	}
}
