// Ehrenfest TDDFT-MD: displace one atom of Si8 off its lattice site,
// converge the electronic ground state of the distorted geometry, release
// the ions, and watch the coupled ion + PT-CN dynamics oscillate the atom
// about its site while the total energy (electronic + ion kinetic +
// ion-ion) stays conserved.
//
// The trajectory is one MD spec run through sim.Run one ion step at a
// time: each segment resumes from the previous segment's final state and
// runs the spec up to its (one step longer) trajectory length, the way a
// production run is split across job allocations. The ion position,
// velocity and force come from each segment's Result.Final. The force on
// the displaced atom also yields the harmonic estimate of the oscillation
// period, T = 2 pi sqrt(M / k_eff) with k_eff = |F|/|dx| - compare it
// against the turning points of the printed trajectory.
//
// Expected runtime: a few seconds on a laptop (-short, which CI runs: ~1 s).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"ptdft/internal/checkpoint"
	"ptdft/internal/lattice"
	"ptdft/internal/sim"
	"ptdft/internal/units"
)

func main() {
	short := flag.Bool("short", false, "run a few ion steps only (CI smoke mode)")
	flag.Parse()
	steps := 40
	if *short {
		steps = 4
	}

	// 1. Si8 with atom 0 displaced 0.2 Bohr along x, no field. One ion
	//    step of 8 au (~194 as) spans K = 4 electronic steps of 2 au.
	const dx = 0.2
	spec := &sim.Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 3, MD: true, Displace: fmt.Sprintf("0:%g,0,0", dx),
		DtAs: units.AUToAttoseconds(2), IonDtAs: units.AUToAttoseconds(8),
	}
	site := lattice.MustSiliconSupercell(1, 1, 1).Atoms[0].Pos
	cell, err := spec.Cell()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Ground state of the distorted geometry with the force-ready
	//    (gradient-capable) projectors, shared by every segment.
	gs, err := sim.GroundState(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Si8, atom 0 displaced %.2f Bohr; ground state E = %.8f Ha\n\n", dx, gs.Energy.Total())

	// 3. One segment per ion step, each resumed from the last.
	fmt.Printf("%8s %12s %12s %12s %16s %12s\n", "t (fs)", "x-x0 (Bohr)", "vx (au)", "Fx (Ha/Bohr)", "E_total (Ha)", "E-E_1 (Ha)")
	var last *checkpoint.State
	var e1, firstStep, maxDrift, keff float64
	for n := 1; n <= steps; n++ {
		spec.IonSteps = n
		res, err := sim.Run(spec, sim.Options{Ground: gs, Resume: last})
		if err != nil {
			log.Fatal(err)
		}
		last = res.Final
		s := res.Samples[0]
		d, _ := cell.MinimumImage(site, last.IonPos[0])
		if n == 1 {
			e1, firstStep = s.Energy, res.EhrenfestDrift
			keff = -last.IonForce[0][0] / d[0]
		}
		maxDrift = math.Max(maxDrift, math.Abs(s.Energy-e1))
		fmt.Printf("%8.3f %12.5f %12.4e %12.4f %16.8f %12.3e\n",
			s.TimeFs, d[0], last.IonVel[0][0], last.IonForce[0][0], s.Energy, s.Energy-e1)
	}
	mass := units.SiliconMassAMU * units.ElectronMassPerAMU
	period := 2 * math.Pi * math.Sqrt(mass/keff)
	fmt.Printf("\nrestoring force after one step -> k_eff = %.3f Ha/Bohr^2, harmonic T = %.0f au (%.1f fs)\n",
		keff, period, period*units.FemtosecondPerAU)
	fmt.Printf("total-energy drift: %.3e Ha in the first ion step, max %.3e Ha over the %d after it\n", firstStep, maxDrift, steps-1)
	fmt.Println("the released atom accelerates back toward its lattice site while")
	fmt.Println("E_electronic + E_ion-kinetic + E_ion-ion stays flat - the Ehrenfest")
	fmt.Println("conservation law the PT-CN coupling is built to respect.")
}
