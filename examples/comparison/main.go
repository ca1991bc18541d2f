// Comparison: a laptop-scale version of Fig. 6 - the cost of advancing the
// same physical time with PT-CN (large steps, a few SCF iterations each)
// versus explicit RK4 (tiny steps for stability). Both propagate the same
// kicked Si8 system for the same physical duration; the program reports H
// applications, wall time, and verifies the observables agree. A second
// table then prices the hybrid functional's ACE exchange rebuilt every step
// (-mts 1) against multiple time stepping (-mts 4: rebuilt only on every
// 4th step, held in between) over the same physical span.
//
// Expected runtime: ~10-20 seconds on a laptop.
package main

import (
	"fmt"
	"log"
	"math"

	"ptdft/internal/potential"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/units"
	"ptdft/internal/wavefunc"
)

const tEndAU = 4.0 // ~97 as of physical time

// run propagates spec to tEndAU in steps of dtAU from the shared ground
// state and returns the result, the H applications it cost (hPerStep plus
// one per SCF iteration, each step) and the wall time of the steps.
func run(spec sim.Spec, gs *scf.Result, dtAU float64, hPerStep int) (*sim.Result, int, float64) {
	spec.DtAs = units.AUToAttoseconds(dtAU)
	spec.Steps = int(math.Round(tEndAU / dtAU))
	res, err := sim.Run(&spec, sim.Options{Ground: gs})
	if err != nil {
		log.Fatal(err)
	}
	hApps, wall := 0, 0.0
	for _, s := range res.Samples {
		hApps += hPerStep + s.SCFIters
		wall += s.WallSec
	}
	return res, hApps, wall
}

func main() {
	base := sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3.5, Kick: 0.02}
	_, g, nb, err := base.System()
	if err != nil {
		log.Fatal(err)
	}
	gs, err := sim.GroundState(&base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("propagating Si8 for %.0f as after a kick\n\n", units.AUToAttoseconds(tEndAU))

	// PT-CN with ~48 as steps: the residual at t_n plus one H application
	// per SCF iteration. RK4 needs ~0.6 as steps for comparable
	// accuracy/stability here, four H applications each.
	rk4 := base
	rk4.Method = "rk4"
	resPT, hAppsPT, wallPT := run(base, gs, 2.0, 1)
	resRK, hAppsRK, wallRK := run(rk4, gs, 0.025, 4)

	rhoPT := potential.Density(g, resPT.Psi, nb, 2)
	rhoRK := potential.Density(g, resRK.Psi, nb, 2)
	dd := potential.DensityDiff(g, rhoPT, rhoRK, 2*float64(nb))
	fid := wavefunc.SubspaceFidelity(resPT.Psi, resRK.Psi, nb, g.NG)

	fmt.Printf("%-22s %14s %14s\n", "", "PT-CN (48 as)", "RK4 (0.6 as)")
	fmt.Printf("%-22s %14d %14d\n", "H applications", hAppsPT, hAppsRK)
	fmt.Printf("%-22s %14.2f %14.2f\n", "wall time (s)", wallPT, wallRK)
	fmt.Printf("\nobservable agreement: density diff %.2e, subspace fidelity %.6f\n", dd, fid)
	fmt.Printf("H-application advantage: %.1fx fewer for PT-CN\n", float64(hAppsRK)/float64(hAppsPT))
	fmt.Printf("wall-clock advantage:    %.1fx\n", wallRK/wallPT)
	if math.Abs(fid-1) > 1e-3 {
		fmt.Println("WARNING: propagators disagree - tighten the RK4 step")
	}
	fmt.Println("\n(the paper's Fig. 6 shows the same comparison at Si1536 scale on")
	fmt.Println(" Summit, where the hybrid-functional Fock cost amplifies the gap to 20-30x)")

	// Hybrid functional: the ACE-compressed exchange rebuilt from Psi_n on
	// every step vs. multiple time stepping (MTS, M = 4: rebuilt on every
	// 4th step and held frozen in between) over the same physical span.
	fmt.Println("\nhybrid functional: every-step ACE vs MTS (M=4, ACE)")
	every := base
	every.Hybrid, every.ACE, every.MTS = true, true, 1
	mts := every
	mts.MTS = 4
	hgs, err := sim.GroundState(&every)
	if err != nil {
		log.Fatal(err)
	}
	resEvery, appsEvery, wallEvery := run(every, hgs, 1.0, 1)
	resMTS, appsMTS, wallMTS := run(mts, hgs, 1.0, 1)
	ddH := potential.DensityDiff(g,
		potential.Density(g, resEvery.Psi, nb, 2), potential.Density(g, resMTS.Psi, nb, 2), 2*float64(nb))
	fmt.Printf("%-22s %14s %14s\n", "", "every step", "MTS M=4")
	fmt.Printf("%-22s %14d %14d\n", "H applications", appsEvery, appsMTS)
	fmt.Printf("%-22s %14.2f %14.2f\n", "wall time (s)", wallEvery, wallMTS)
	fmt.Printf("\nMTS wall-clock advantage: %.1fx at density deviation %.1e\n", wallEvery/wallMTS, ddH)
}
