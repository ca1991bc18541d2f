// The sched experiment measures the exchange communication strategies on
// the real distributed code path (internal/dist over the goroutine MPI
// runtime) instead of the calibrated Summit model: strategy-by-strategy
// straggler resilience, strong scaling, and weak scaling, with per-rank
// slowdowns and NIC delay injected through mpi.RunPerturbed. This is the
// laptop-scale counterpart of the paper's load-balance engineering and the
// measurement behind the EXPERIMENTS.md straggler curves.
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

// straggle slows rank 0 by the given factor and leaves the rest nominal.
func straggle(factor float64) *mpi.Perturb {
	if factor <= 1 {
		return nil
	}
	return &mpi.Perturb{ComputeScale: func(rank int) float64 {
		if rank == 0 {
			return factor
		}
		return 1.0
	}}
}

func sched(stragglerFactor float64, rec *trace.Recorder) {
	// One worker per rank isolates the schedule under measurement: rank-
	// level balance, not node-level thread fan-out.
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 2)
	nb := cell.NumBands()
	psi := wavefunc.Random(g, nb, 7)
	const reps = 3
	strategies := []dist.ExchangeStrategy{dist.BcastSequential, dist.BcastOverlapped, dist.RoundRobin, dist.Steal}

	header(fmt.Sprintf("Sched A: straggler resilience, 8 ranks, Si8 nb=%d (ms per exchange)", nb))
	fmt.Printf("%-12s", "slowdown")
	for _, s := range strategies {
		fmt.Printf("%12v", s)
	}
	fmt.Println()
	for _, f := range []float64{1.0, 1.5, stragglerFactor, 2 * stragglerFactor} {
		fmt.Printf("%-12s", fmt.Sprintf("%gx", f))
		for _, s := range strategies {
			w := schedWall(g, psi, nb, 8, dist.ExchangeOptions{Strategy: s}, straggle(f), reps, rec)
			fmt.Printf("%12.2f", float64(w)/1e6)
		}
		fmt.Println()
	}

	header("Sched B: NIC delay on every link, 8 ranks (ms per exchange)")
	fmt.Printf("%-12s", "delay")
	for _, s := range strategies {
		fmt.Printf("%12v", s)
	}
	fmt.Println()
	for _, d := range []time.Duration{0, 100 * time.Microsecond, 400 * time.Microsecond} {
		d := d
		var p *mpi.Perturb
		if d > 0 {
			p = &mpi.Perturb{WireDelay: func(src, dst int, bytes int64) time.Duration { return d }}
		}
		fmt.Printf("%-12v", d)
		for _, s := range strategies {
			w := schedWall(g, psi, nb, 8, dist.ExchangeOptions{Strategy: s}, p, reps, rec)
			fmt.Printf("%12.2f", float64(w)/1e6)
		}
		fmt.Println()
	}

	header(fmt.Sprintf("Sched C: strong scaling under a %gx straggler (ms per exchange)", stragglerFactor))
	fmt.Printf("%10s %12s %12s %10s\n", "ranks", "overlap", "steal", "steal win")
	for _, ranks := range []int{1, 2, 4, 8} {
		ov := schedWall(g, psi, nb, ranks, dist.ExchangeOptions{Strategy: dist.BcastOverlapped}, straggle(stragglerFactor), reps, rec)
		st := schedWall(g, psi, nb, ranks, dist.ExchangeOptions{Strategy: dist.Steal}, straggle(stragglerFactor), reps, rec)
		fmt.Printf("%10d %12.2f %12.2f %9.2fx\n", ranks, float64(ov)/1e6, float64(st)/1e6, float64(ov)/float64(st))
	}

	header("Sched D: weak scaling, nb = 4 x ranks, no perturbation (ms per exchange; us per pair solve)")
	fmt.Printf("%10s %8s %12s %12s %14s %14s\n", "ranks", "bands", "overlap", "steal", "overlap/pair", "steal/pair")
	for _, ranks := range []int{1, 2, 4, 8} {
		wnb := 4 * ranks
		wpsi := wavefunc.Random(g, wnb, 7)
		ov := schedWall(g, wpsi, wnb, ranks, dist.ExchangeOptions{Strategy: dist.BcastOverlapped}, nil, reps, rec)
		st := schedWall(g, wpsi, wnb, ranks, dist.ExchangeOptions{Strategy: dist.Steal}, nil, reps, rec)
		// Self-referenced: both schedules solve each unordered pair once.
		pairs := float64(wnb*(wnb+1)) / 2 / float64(ranks)
		fmt.Printf("%10d %8d %12.2f %12.2f %14.1f %14.1f\n", ranks, wnb,
			float64(ov)/1e6, float64(st)/1e6, float64(ov)/1e3/pairs, float64(st)/1e3/pairs)
	}
	fmt.Println("(both schedules solve each symmetric pair once; they differ in who solves it)")
}
