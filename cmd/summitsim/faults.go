// The faults experiment measures recovery overhead on the real
// distributed code path: a propagation through sim.Run with an injected
// rank crash, swept over the crash step and the checkpoint cadence. The
// cost of surviving a failure decomposes into lost steps (work past the
// last durable checkpoint, re-run after the relaunch) plus the fixed
// teardown/relaunch cost, so the table makes the cadence trade-off
// concrete: frequent checkpoints buy cheap recovery with more I/O, sparse
// ones the reverse. Measured, not modeled - runs only when named.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/mpi"
	"ptdft/internal/sim"
	"ptdft/internal/trace"
)

// check ends the experiment on an error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// faultRun propagates spec from the shared ground state with rolling
// checkpoints every `every` steps under dir, crashing `victim` before step
// `crashStep` on the first launch (victim < 0 disables the fault), and
// returns the result plus the wall time.
func faultRun(spec sim.Spec, opt sim.Options, every, victim int, crashStep int64, dir string) (*sim.Result, time.Duration) {
	check(os.Mkdir(dir, 0o755))
	opt.Ckpt, opt.CkptEvery = &checkpoint.Rolling{Base: filepath.Join(dir, "faults.ckp")}, every
	if victim >= 0 {
		opt.Perturb = func(attempt int) *mpi.Perturb {
			if attempt > 0 {
				return nil
			}
			// A tight deadline keeps the fixed detection cost from swamping
			// the cadence-dependent re-run cost at laptop scale (production
			// would run seconds-long deadlines against minutes-long steps).
			return &mpi.Perturb{
				Deadline: time.Second,
				Fault:    &mpi.Fault{Crashes: []mpi.CrashRankAt{{Rank: victim, AfterStep: crashStep}}},
			}
		}
	}
	t0 := time.Now()
	res, err := sim.Run(&spec, opt)
	check(err)
	return res, time.Since(t0)
}

func faults(rec *trace.Recorder) {
	spec := sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, Ranks: 4, Steps: 12, Kick: 0.02, Seed: 7}
	gs, err := sim.GroundState(&spec)
	check(err)
	opt := sim.Options{Ground: gs, Trace: rec}
	dir, err := os.MkdirTemp("", "summitsim-faults-*")
	check(err)
	defer os.RemoveAll(dir)

	// Crash-free baseline (checkpoints on, so the cadence I/O is included).
	_, cleanWall := faultRun(spec, opt, 4, -1, 0, filepath.Join(dir, "clean"))

	header(fmt.Sprintf("Faults: recovery overhead, %d ranks, Si8 nb=%d, %d steps (crash-free: %.0f ms)",
		spec.Ranks, len(gs.BandEnergies), spec.Steps, float64(cleanWall)/1e6))
	fmt.Printf("%10s %12s %10s %10s %12s %10s\n", "cadence", "crash step", "restarts", "lost", "wall (ms)", "overhead")
	for _, every := range []int{2, 4, 6} {
		for _, crash := range []int64{3, 6, 9, 11} {
			res, wall := faultRun(spec, opt, every, int(crash)%spec.Ranks, crash, filepath.Join(dir, fmt.Sprintf("c%d-s%d", every, crash)))
			fmt.Printf("%10d %12d %10d %10d %12.0f %9.1f%%\n",
				every, crash, res.Restarts, res.LostSteps,
				float64(wall)/1e6, 100*(float64(wall)/float64(cleanWall)-1))
		}
	}
	fmt.Println("(lost = steps past the last durable checkpoint, re-run after the relaunch;")
	fmt.Println(" overhead vs the crash-free run at cadence 4 - checkpoint I/O included in both)")
}
