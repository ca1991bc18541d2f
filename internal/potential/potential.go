// Package potential evaluates the density-dependent local potentials of
// Eq. 2: the electron density on the dense grid, the Hartree potential
// (Poisson solve in G space), the semi-local exchange-correlation
// potential, and the static local pseudopotential assembled from form
// factors and structure factors. These are the "others" components of the
// paper's cost breakdown (section 3.4) - cheap in absolute terms but the
// part that limits strong scaling once the Fock operator is accelerated.
package potential

import (
	"math"
	"sort"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
	"ptdft/internal/pseudo"
	"ptdft/internal/xc"
)

// Energies collects the local-potential energy contributions (Ha).
type Energies struct {
	Hartree float64
	XC      float64
	Local   float64
}

// BuildVloc assembles the static local pseudopotential on the dense grid in
// real space: V(G) = (1/Omega) * sum_s v_s(|G|) S_s(G), with the G = 0 term
// set to zero (it cancels against the Hartree and ion-ion G = 0 terms for a
// neutral cell; the constant shift does not affect dynamics).
func BuildVloc(g *grid.Grid, pots map[int]*pseudo.Potential) []float64 {
	coeff := make([]complex128, g.NDTot)
	invOmega := 1 / g.Volume()
	// Group atoms by species once.
	bySpecies := map[int][][3]float64{}
	for _, a := range g.Cell.Atoms {
		bySpecies[a.Species] = append(bySpecies[a.Species], a.Pos)
	}
	// Sum the species in key order: a map range would reorder the terms of
	// acc from call to call.
	species := make([]int, 0, len(bySpecies))
	for s := range bySpecies {
		if _, ok := pots[s]; ok {
			species = append(species, s)
		}
	}
	sort.Ints(species)
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				continue // G = 0 handled by convention
			}
			gv := g.GVecDense[k]
			var acc complex128
			for _, s := range species {
				ff := pots[s].LocalFormFactor(g2)
				var sre, sim float64
				for _, tau := range bySpecies[s] {
					ph := gv[0]*tau[0] + gv[1]*tau[1] + gv[2]*tau[2]
					s, c := math.Sincos(-ph)
					sre += c
					sim += s
				}
				acc += complex(ff*sre, ff*sim)
			}
			coeff[k] = acc * complex(invOmega, 0)
		}
	})
	field := make([]complex128, g.NDTot)
	g.DenseInverse(field, coeff)
	out := make([]float64, g.NDTot)
	for i, v := range field {
		out[i] = real(v)
	}
	return out
}

// Density accumulates the electron density rho(r) = occ * sum_i |psi_i(r)|^2
// on the dense grid from sphere-coefficient bands (band-major, nb x NG).
// occ is the orbital occupation (2 for spin-restricted).
//
// The sum has one fixed shape whatever the worker count: bands are cut into
// groups of lanes.Width, each group's |psi|^2 is summed in band order into
// a partial density of its own, and the partials are folded into rho in
// group order. Workers only decide how many groups are in flight, so the
// result is the same bits at 1, 2 or N workers and from run to run. Each
// orbital is synthesized by the grid's pruned dense transform into
// grid-owned scratch; only rho is allocated.
func Density(g *grid.Grid, bands []complex128, nb int, occ float64) []float64 {
	rho := make([]float64, g.NDTot)
	ngroups := (nb + lanes.Width - 1) / lanes.Width
	nw := parallel.NumWorkers(ngroups)
	wss := g.AcquireDenseScratch(nw)
	scale := occ / g.Volume()
	for g0 := 0; g0 < ngroups; g0 += nw {
		n := min(nw, ngroups-g0)
		if n == 1 {
			// No closure, no goroutine: the one-worker path allocates nothing.
			groupDensity(g, wss[0], bands, nb, g0)
		} else {
			parallel.For(n, func(i int) { groupDensity(g, wss[i], bands, nb, g0+i) })
		}
		for _, ws := range wss[:n] {
			for j, v := range ws.Acc {
				rho[j] += scale * v
			}
		}
	}
	g.ReleaseDenseScratch(wss)
	return rho
}

// groupDensity leaves sum_i |sum_G c_G exp(iG.r)|^2 over the bands of group
// gi (bands [gi*Width, (gi+1)*Width) below nb), in band order, in ws.Acc.
func groupDensity(g *grid.Grid, ws *grid.DenseScratch, bands []complex128, nb, gi int) {
	clear(ws.Acc)
	for i := gi * lanes.Width; i < min((gi+1)*lanes.Width, nb); i++ {
		g.ToRealDenseSlabWS(ws.Box, bands[i*g.NG:(i+1)*g.NG], ws.WS)
		lanes.AddNorm2(ws.Acc, ws.Box)
	}
}

// Hartree solves the Poisson equation for the given density and returns the
// Hartree potential on the dense grid together with the Hartree energy.
// The G = 0 component is dropped (jellium compensation).
func Hartree(g *grid.Grid, rho []float64) ([]float64, float64) {
	work := make([]complex128, g.NDTot)
	for i, r := range rho {
		work[i] = complex(r, 0)
	}
	g.DenseForward(work, work)
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				work[k] = 0
				continue
			}
			work[k] *= complex(4*math.Pi/g2, 0)
		}
	})
	g.DenseInverse(work, work)
	vh := make([]float64, g.NDTot)
	for i, v := range work {
		vh[i] = real(v)
	}
	var eh float64
	for i := range rho {
		eh += vh[i] * rho[i]
	}
	eh *= 0.5 * g.DV()
	return vh, eh
}

// XCPotential evaluates the semi-local exchange-correlation potential and
// energy for the density. exScale attenuates the semi-local exchange when a
// hybrid functional carries part of it through the Fock operator.
func XCPotential(rho []float64, exScale, dv float64) ([]float64, float64) {
	v := make([]float64, len(rho))
	// One exc partial per block, summed in block order: the energy does not
	// depend on which worker finishes first.
	n := len(rho)
	nblk := parallel.NumWorkers(n)
	chunk := (n + nblk - 1) / nblk
	part := make([]float64, nblk)
	parallel.For(nblk, func(b int) {
		var acc float64
		for i := b * chunk; i < min((b+1)*chunk, n); i++ {
			eps, pot := xc.LDA(rho[i], exScale)
			v[i] = pot
			acc += eps * rho[i]
		}
		part[b] = acc
	})
	var exc float64
	for _, e := range part {
		exc += e
	}
	return v, exc * dv
}

// SCFPotential bundles the density-dependent potential assembly: given the
// density it returns Veff = Vloc + VH + Vxc on the dense grid and the
// energy pieces.
func SCFPotential(g *grid.Grid, rho, vloc []float64, exScale float64) ([]float64, Energies) {
	vh, eh := Hartree(g, rho)
	vxc, exc := XCPotential(rho, exScale, g.DV())
	var eloc float64
	veff := make([]float64, g.NDTot)
	for i := range veff {
		veff[i] = vloc[i] + vh[i] + vxc[i]
		eloc += vloc[i] * rho[i]
	}
	eloc *= g.DV()
	return veff, Energies{Hartree: eh, XC: exc, Local: eloc}
}

// RestrictToWave Fourier-truncates a dense-grid real potential onto the
// wavefunction grid, where it is applied point-wise to orbitals.
func RestrictToWave(g *grid.Grid, dense []float64) []float64 {
	src := make([]complex128, g.NDTot)
	for i, v := range dense {
		src[i] = complex(v, 0)
	}
	dst := make([]complex128, g.NTot)
	g.RestrictDenseToWave(dst, src)
	out := make([]float64, g.NTot)
	for i, v := range dst {
		out[i] = real(v)
	}
	return out
}

// IntegrateDensity returns the total electron count of a dense-grid density.
func IntegrateDensity(g *grid.Grid, rho []float64) float64 {
	var s float64
	for _, r := range rho {
		s += r
	}
	return s * g.DV()
}

// DensityDiff returns the L1 density difference per electron,
// norm = integral |rho1 - rho2| dr / Nelec, the SCF convergence monitor of
// section 4 (stopping criterion 1e-6).
func DensityDiff(g *grid.Grid, rho1, rho2 []float64, nelec float64) float64 {
	var s float64
	for i := range rho1 {
		s += math.Abs(rho1[i] - rho2[i])
	}
	return s * g.DV() / nelec
}
