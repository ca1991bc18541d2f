// Scaling: strong scaling of the distributed PT-CN solver on real physics
// (goroutine-MPI ranks on this machine), side by side with the calibrated
// Summit model's projection for the paper's Si1536 system. Demonstrates
// the band-index parallelization limit (ranks <= bands), the Alltoallv
// layout transpose, and the communication accounting per collective class.
//
// Each rank count runs the same hybrid spec through sim.Run from one
// shared hybrid ground state; the step wall time is the sample's, the
// bytes come from Result.Comm.
//
// Expected runtime: a few seconds on a laptop.
package main

import (
	"fmt"
	"log"

	"ptdft/internal/mpi"
	"ptdft/internal/perf"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
)

func main() {
	spec := &sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3.5, Hybrid: true, DtAs: 24, Steps: 1, Kick: 0.02, Seed: scf.Defaults().Seed}
	cell, _, nb, err := spec.System()
	if err != nil {
		log.Fatal(err)
	}
	gs, err := sim.GroundState(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("real strong scaling: Si%d, %d bands, one PT-CN step (hybrid exchange)\n\n", cell.NumAtoms(), nb)
	fmt.Printf("%6s %12s %10s %14s %14s\n", "ranks", "wall (s)", "speedup", "Bcast (MB)", "A2AV (MB)")
	var base float64
	for _, p := range []int{1, 2, 4, 8} {
		spec.Ranks = p
		res, err := sim.Run(spec, sim.Options{Ground: gs})
		if err != nil {
			log.Fatal(err)
		}
		wall := res.Samples[0].WallSec
		if p == 1 {
			base = wall
		}
		fmt.Printf("%6d %12.2f %9.2fx %14.1f %14.1f\n", p, wall, base/wall,
			float64(res.Comm.BytesFor(mpi.ClassBcast))/1e6,
			float64(res.Comm.BytesFor(mpi.ClassAlltoallv))/1e6)
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
