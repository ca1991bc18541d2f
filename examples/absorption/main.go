// Absorption: compute the optical absorption spectrum of Si8 from a
// delta-kick rt-TDDFT run - one of the paper's motivating applications
// ("light absorption spectrum"). A weak instantaneous vector-potential
// kick excites all dipole-allowed transitions at once; the Fourier
// transform of the induced current yields the dynamical conductivity,
// whose peaks sit at the optical transition energies.
//
// Expected runtime: ~5-10 seconds on a laptop.
package main

import (
	"fmt"
	"log"

	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/units"
)

func main() {
	const (
		kick    = 0.005
		dtAs    = 18.0
		nsteps  = 60
		wmaxEV  = 20.0
		npoints = 60
	)
	spec := &sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3.5, DtAs: dtAs, Steps: nsteps, Kick: kick, Seed: scf.Defaults().Seed}
	gs, err := sim.GroundState(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground state: %.6f Ha\n", gs.Energy.Total())

	res, err := sim.Run(spec, sim.Options{Ground: gs})
	if err != nil {
		log.Fatal(err)
	}
	jz := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		jz[i] = s.CurrentZ
	}
	fmt.Printf("propagated %.2f fs; transforming current trace\n", res.Time*units.FemtosecondPerAU)

	dt := units.AttosecondsToAU(dtAs)
	wmax := wmaxEV / units.EVPerHartree
	// jz[i] was recorded after step i+1, i.e. at t = (i+1)*dt: t0 = dt.
	omegas, sigma := observe.AbsorptionSpectrum(jz, dt, dt, kick, wmax, npoints, 0.01)

	// Render a small terminal plot of Re sigma(omega).
	var peak float64
	for _, s := range sigma {
		if s > peak {
			peak = s
		}
	}
	fmt.Println("\nomega (eV)  Re sigma")
	for i := range omegas {
		bar := ""
		if peak > 0 && sigma[i] > 0 {
			n := int(sigma[i] / peak * 50)
			for j := 0; j < n; j++ {
				bar += "#"
			}
		}
		fmt.Printf("%9.2f  %11.4e %s\n", omegas[i]*units.EVPerHartree, sigma[i], bar)
	}
	fmt.Println("\npeaks mark the optical transitions of the model silicon crystal;")
	fmt.Println("a longer run (cmd/spectra) sharpens them.")
}
