// Laserpulse: the paper's physical setup in miniature (section 4) - a
// silicon supercell driven by a 380 nm Gaussian laser pulse, propagated
// with PT-CN under the hybrid (screened exchange) functional. Prints the
// field, the induced current, and the energy absorbed from the pulse.
//
// Expected runtime: ~10-15 seconds on a laptop (the hybrid ground state
// and the per-step Fock applications dominate).
package main

import (
	"flag"
	"fmt"
	"log"

	"ptdft/internal/laser"
	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/units"
)

func main() {
	hybrid := flag.Bool("hybrid", true, "use the HSE-like hybrid functional")
	steps := flag.Int("steps", 8, "number of PT-CN steps")
	dtAs := flag.Float64("dt", 24, "time step (as)")
	e0 := flag.Float64("e0", 0.01, "pulse peak field (Ha/bohr)")
	flag.Parse()

	// 380 nm pulse whose envelope spans the simulated window (sim.Run
	// centers it at half the trajectory).
	spec := &sim.Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 3.5, Hybrid: *hybrid,
		DtAs: *dtAs, Steps: *steps, PulseE0: *e0, Seed: scf.Defaults().Seed,
	}
	gs, err := sim.GroundState(spec)
	if err != nil {
		log.Fatal(err)
	}
	e0gs := gs.Energy.Total()
	fmt.Printf("Si8 ground state (hybrid=%v): %.8f Ha\n", *hybrid, e0gs)
	fmt.Printf("pulse: 380 nm (%.2f eV photon), E0 = %g Ha/bohr, center %.1f as\n",
		units.WavelengthNmToOmegaAU(380)*units.EVPerHartree, *e0, *dtAs*float64(*steps)/2)

	// The field sim.Run will propagate under (nil, hence zero, at -e0 0).
	pulse, _ := spec.Field().(*laser.Pulse)
	fmt.Printf("\n%8s %12s %12s %16s %12s\n", "t (as)", "E(t) field", "A(t)", "E_tot (Ha)", "J_z (au)")
	res, err := sim.Run(spec, sim.Options{Ground: gs, OnSample: func(s observe.Sample) {
		t := s.TimeFs / units.FemtosecondPerAU
		fmt.Printf("%8.1f %12.5f %12.5f %16.8f %12.4e\n",
			s.TimeFs*1000, pulse.Efield(t)[2], pulse.Avec(t)[2], s.Energy, s.CurrentZ)
	}})
	if err != nil {
		log.Fatal(err)
	}
	eFinal := e0gs
	if n := len(res.Samples); n > 0 {
		eFinal = res.Samples[n-1].Energy
	}
	fmt.Printf("\nenergy absorbed from the pulse: %.3e Ha (%.3f eV)\n",
		eFinal-e0gs, (eFinal-e0gs)*units.EVPerHartree)
}
