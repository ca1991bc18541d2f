// Package ion adds ion dynamics to the rt-TDDFT stack: Hellmann-Feynman
// forces on the ions (local pseudopotential via structure-factor gradients
// in G space, nonlocal Kleinman-Bylander projectors via their band-limited
// center gradients, and the Ewald ion-ion sum on the periodic supercell)
// and a velocity-Verlet Ehrenfest integrator that advances the ions one MD
// step per K electronic PT-CN steps. In the plane-wave basis the orbitals
// carry no atom-position dependence, so the Hellmann-Feynman force is the
// exact derivative of the discrete total energy at fixed orbitals - there
// are no Pulay terms - and a trajectory's conserved quantity is
// E_electronic + E_ion-kinetic + E_ion-ion.
//
// The integrator drives the electrons through the Electrons interface,
// which dist.PTCNSolver implements on every rank of a world (DistElectrons;
// a serial run is the one-rank world, as in sim.Run). The force assembly
// allreduces in deterministic rank order, so every rank integrates a
// bit-identical replica of the ion trajectory.
package ion

import (
	"fmt"
	"math"

	"ptdft/internal/grid"
	"ptdft/internal/parallel"
	"ptdft/internal/pseudo"
)

// LocalForces computes the Hellmann-Feynman force of the local
// pseudopotential on every atom from the dense-grid electron density:
//
//	F_a = Re sum_G  i G v_s(|G|^2) e^{-iG.R_a} conj(rho_G),
//
// the exact derivative of E_loc = Omega sum_G Vloc_G conj(rho_G) with
// respect to the atom position (the structure-factor gradient). The G = 0
// term is excluded by the same neutral-cell convention as BuildVloc; it is
// position independent, so the force is unaffected. The per-atom G sum is
// serial, making the result bit-reproducible across ranks and runs.
func LocalForces(g *grid.Grid, pots map[int]*pseudo.Potential, rho []float64) [][3]float64 {
	rhoG := make([]complex128, g.NDTot)
	for i, r := range rho {
		rhoG[i] = complex(r, 0)
	}
	g.DenseForward(rhoG, rhoG)
	// One form-factor table per species, shared by its atoms.
	ffs := map[int][]float64{}
	for s := range pots {
		ffs[s] = make([]float64, g.NDTot)
	}
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for s, tab := range ffs {
			pot := pots[s]
			for k := lo; k < hi; k++ {
				tab[k] = pot.LocalFormFactor(g.G2Dense[k])
			}
		}
	})
	n := g.Cell.NumAtoms()
	f := make([][3]float64, n)
	parallel.For(n, func(a int) {
		tab, ok := ffs[g.Cell.Atoms[a].Species]
		if !ok {
			return
		}
		tau := g.Cell.Atoms[a].Pos
		var acc [3]float64
		for k := 0; k < g.NDTot; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				continue
			}
			gv := g.GVecDense[k]
			ph := gv[0]*tau[0] + gv[1]*tau[1] + gv[2]*tau[2]
			sn, cs := math.Sincos(-ph)
			// z = conj(rho_G) e^{-iG.R_a}; F_d += Re[i G_d z] = -G_d Im[z].
			im := real(rhoG[k])*sn - imag(rhoG[k])*cs
			w := tab[k] * im
			acc[0] -= gv[0] * w
			acc[1] -= gv[1] * w
			acc[2] -= gv[2] * w
		}
		f[a] = acc
	})
	return f
}

// addInto accumulates src into dst component-wise.
func addInto(dst, src [][3]float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("ion: force arrays hold %d and %d atoms", len(dst), len(src))
	}
	for i := range dst {
		for d := 0; d < 3; d++ {
			dst[i][d] += src[i][d]
		}
	}
	return nil
}
