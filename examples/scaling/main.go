// Scaling: strong scaling of the distributed PT-CN solver on real physics
// (goroutine-MPI ranks on this machine), side by side with the calibrated
// Summit model's projection for the paper's Si1536 system. Demonstrates
// the band-index parallelization limit (ranks <= bands), the Alltoallv
// layout transpose, and the communication accounting per collective class.
//
// Expected runtime: a few seconds on a laptop.
package main

import (
	"fmt"
	"log"
	"time"

	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/lattice"
	"ptdft/internal/mpi"
	"ptdft/internal/perf"
	"ptdft/internal/pseudo"
	"ptdft/internal/scf"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func main() {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 3.5)
	nb := cell.NumBands()
	pots := map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
	h := hamiltonian.New(g, pots, hamiltonian.Config{})
	gs, err := scf.GroundState(g, h, nb, scf.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}

	fmt.Printf("real strong scaling: Si%d, %d bands, one PT-CN step (hybrid exchange)\n\n", cell.NumAtoms(), nb)
	fmt.Printf("%6s %12s %10s %14s %14s\n", "ranks", "wall (s)", "speedup", "Bcast (MB)", "A2AV (MB)")
	var base float64
	for _, p := range []int{1, 2, 4, 8} {
		wall, stats := oneStep(g, pots, gs.Psi, nb, kick, p)
		if p == 1 {
			base = wall
		}
		fmt.Printf("%6d %12.2f %9.2fx %14.1f %14.1f\n", p, wall, base/wall,
			float64(stats.BytesFor(mpi.ClassBcast))/1e6,
			float64(stats.BytesFor(mpi.ClassAlltoallv))/1e6)
	}

	fmt.Println("\nSummit model projection for the paper's Si1536 (Table 1 shape):")
	m := perf.New(perf.Reference)
	fmt.Printf("%6s %12s %10s %12s\n", "GPUs", "step (s)", "speedup", "HPsi share")
	for _, p := range perf.GPUCounts {
		fmt.Printf("%6d %12.1f %9.1fx %11.1f%%\n", p, m.StepTotal(p), m.Speedup(p), m.HPsiPercent(p))
	}
	fmt.Println("\n(scaling saturates near 768 GPUs where MPI_Bcast dominates - the")
	fmt.Println(" paper's conclusion that network bandwidth is the limit)")
}

func oneStep(g *grid.Grid, pots map[int]*pseudo.Potential, psi0 []complex128, nb int, field *laser.Kick, ranks int) (float64, *mpi.Stats) {
	start := time.Now()
	stats := mpi.Run(ranks, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			panic(err)
		}
		h := hamiltonian.New(g, pots, hamiltonian.Config{})
		// The production exchange: double-precision wire, pair-symmetric fold.
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), true, field, core.DefaultPTCN(), dist.ExchangeOptions{})
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
		if _, _, err := s.Step(local, 1.0); err != nil {
			panic(err)
		}
	})
	return time.Since(start).Seconds(), stats
}
