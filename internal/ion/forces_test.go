package ion

import (
	"math"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
)

func siPots() map[int]*pseudo.Potential {
	return map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
}

// displacedSi8 returns a Si8 cell with atom 0 pushed off its lattice site,
// the standard distorted test geometry.
func displacedSi8(t *testing.T) *lattice.Cell {
	t.Helper()
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	if err := cell.DisplaceAtom(0, [3]float64{0.2, -0.1, 0.15}); err != nil {
		t.Fatal(err)
	}
	return cell
}

// localEnergy evaluates E_loc = integral Vloc rho dr for the cell's
// current geometry with a fixed density - the discrete functional
// LocalForces differentiates.
func localEnergy(g *grid.Grid, pots map[int]*pseudo.Potential, rho []float64) float64 {
	vloc := potential.BuildVloc(g, pots)
	var e float64
	for i := range vloc {
		e += vloc[i] * rho[i]
	}
	return e * g.DV()
}

// TestLocalForceMatchesFD pins the structure-factor-gradient force against
// central finite differences of the discrete local energy at fixed
// density, to the acceptance tolerance 1e-5 Ha/Bohr per component.
func TestLocalForceMatchesFD(t *testing.T) {
	cell := displacedSi8(t)
	g := grid.MustNew(cell, 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 11)
	rho := potential.Density(g, psi, nb, 2)
	forces := LocalForces(g, siPots(), rho)
	const h = 1e-3
	for _, atom := range []int{0, 4} {
		for d := 0; d < 3; d++ {
			plus := cell.Clone()
			var dp [3]float64
			dp[d] = h
			plus.DisplaceAtom(atom, dp)
			minus := cell.Clone()
			dp[d] = -h
			minus.DisplaceAtom(atom, dp)
			// The grids share the discretization; only atom positions
			// differ, so rho carries over unchanged.
			fd := -(localEnergy(grid.MustNew(plus, 3), siPots(), rho) -
				localEnergy(grid.MustNew(minus, 3), siPots(), rho)) / (2 * h)
			if diff := math.Abs(fd - forces[atom][d]); diff > 1e-5 {
				t.Errorf("atom %d component %d: analytic %g vs FD %g (diff %g)", atom, d, forces[atom][d], fd, diff)
			}
		}
	}
}

// nonlocalEnergy evaluates E_nl = occ sum_b <psi_b|V_nl|psi_b> with the
// MD projectors of the cell's current geometry at fixed orbitals.
func nonlocalEnergy(g *grid.Grid, pots map[int]*pseudo.Potential, psi []complex128, nb int, occ float64) float64 {
	nl := pseudo.BuildNonlocalMD(g, pots)
	box := lanes.New(g.NTot)
	ws := g.Plan.NewWorkspace()
	var e float64
	for b := 0; b < nb; b++ {
		g.ToRealSlabWS(box, psi[b*g.NG:(b+1)*g.NG], ws)
		e += occ * nl.Energy(box)
	}
	return e
}

// TestNonlocalForceMatchesFD pins the band-limited projector-gradient
// force against finite differences of the discrete nonlocal energy at
// fixed orbitals.
func TestNonlocalForceMatchesFD(t *testing.T) {
	cell := displacedSi8(t)
	g := grid.MustNew(cell, 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 12)
	nl := pseudo.BuildNonlocalMD(g, siPots())
	if !nl.HasGradients() {
		t.Fatal("MD projectors carry no gradients")
	}
	forces := make([][3]float64, cell.NumAtoms())
	if err := nl.Forces(forces, g, psi, nb, 2); err != nil {
		t.Fatal(err)
	}
	const h = 1e-3
	for _, atom := range []int{0, 4} {
		for d := 0; d < 3; d++ {
			plus := cell.Clone()
			var dp [3]float64
			dp[d] = h
			plus.DisplaceAtom(atom, dp)
			minus := cell.Clone()
			dp[d] = -h
			minus.DisplaceAtom(atom, dp)
			fd := -(nonlocalEnergy(grid.MustNew(plus, 3), siPots(), psi, nb, 2) -
				nonlocalEnergy(grid.MustNew(minus, 3), siPots(), psi, nb, 2)) / (2 * h)
			if diff := math.Abs(fd - forces[atom][d]); diff > 1e-5 {
				t.Errorf("atom %d component %d: analytic %g vs FD %g (diff %g)", atom, d, forces[atom][d], fd, diff)
			}
		}
	}

	// The assembly synthesizes every band into per-worker scratch it
	// recycles, so what a call allocates (the partial-force table, the loop's
	// closure and goroutines) is bounded by the worker count, not the band
	// count: 8 per call at 2 workers, where a box per band would be 16 more.
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(2))
	nb = 16
	psi = wavefunc.Random(g, nb, 12)
	nl.Forces(forces, g, psi, nb, 2) // fills the scratch pool
	allocs := testing.AllocsPerRun(5, func() { nl.Forces(forces, g, psi, nb, 2) })
	if bound := float64(4 + 4*parallel.MaxWorkers()); allocs > bound && !raceEnabled {
		t.Errorf("Forces on %d bands allocates %v per call, want at most %v at %d workers", nb, allocs, bound, parallel.MaxWorkers())
	}
}

// TestTotalForceMatchesFD is the acceptance pin: the full Hellmann-Feynman
// force (local + nonlocal + Ewald) against central finite differences of
// the complete position-dependent energy E_loc + E_nl + E_II at fixed
// orbitals, to 1e-5 Ha/Bohr per component. Terms with no explicit position
// dependence (kinetic, Hartree, XC, Fock exchange) drop out of the
// difference exactly and are omitted from both sides.
func TestTotalForceMatchesFD(t *testing.T) {
	cell := displacedSi8(t)
	g := grid.MustNew(cell, 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 13)
	rho := potential.Density(g, psi, nb, 2)
	pots := siPots()

	forces := LocalForces(g, pots, rho)
	nl := pseudo.BuildNonlocalMD(g, pots)
	if err := nl.Forces(forces, g, psi, nb, 2); err != nil {
		t.Fatal(err)
	}
	ew := Ewald(cell)
	if err := addInto(forces, ew.Forces); err != nil {
		t.Fatal(err)
	}

	energy := func(c *lattice.Cell) float64 {
		gg := grid.MustNew(c, 3)
		return localEnergy(gg, pots, rho) + nonlocalEnergy(gg, pots, psi, nb, 2) + Ewald(c).Energy
	}
	const h = 1e-3
	for _, atom := range []int{0, 4} {
		for d := 0; d < 3; d++ {
			plus := cell.Clone()
			var dp [3]float64
			dp[d] = h
			plus.DisplaceAtom(atom, dp)
			minus := cell.Clone()
			dp[d] = -h
			minus.DisplaceAtom(atom, dp)
			fd := -(energy(plus) - energy(minus)) / (2 * h)
			if diff := math.Abs(fd - forces[atom][d]); diff > 1e-5 {
				t.Errorf("atom %d component %d: analytic %g vs FD %g (diff %g)", atom, d, forces[atom][d], fd, diff)
			}
		}
	}
}

// TestDisplacedPairForceAntisymmetry: the bonded pair (0, 4) displaced
// symmetrically about its bond center keeps the inversion symmetry mapping
// the two atoms onto each other; with an inversion-symmetric electronic
// state the full Hellmann-Feynman forces on the pair are equal and
// opposite. The Ewald part is exactly antisymmetric (pure geometry); here
// the electron terms use the symmetric density/orbitals of a uniform
// occupancy-free probe: the G = 0-only density, for which the local force
// vanishes identically, leaving the exact ion-ion antisymmetry as the
// observable.
func TestDisplacedPairForceAntisymmetry(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	d := [3]float64{0.12, 0.12, 0.12}
	cell.DisplaceAtom(0, d)
	cell.DisplaceAtom(4, [3]float64{-d[0], -d[1], -d[2]})
	g := grid.MustNew(cell, 3)
	pots := siPots()

	// Uniform density: the local force has no G != 0 structure to couple
	// to and must vanish on every atom.
	rho := make([]float64, g.NDTot)
	for i := range rho {
		rho[i] = 32.0 / g.Volume()
	}
	loc := LocalForces(g, pots, rho)
	for i, f := range loc {
		for k := 0; k < 3; k++ {
			if math.Abs(f[k]) > 1e-10 {
				t.Errorf("uniform-density local force[%d][%d] = %g, want 0", i, k, f[k])
			}
		}
	}
	ew := Ewald(cell)
	for k := 0; k < 3; k++ {
		if diff := math.Abs(ew.Forces[0][k] + ew.Forces[4][k]); diff > 1e-9 {
			t.Errorf("component %d: pair forces %g / %g not antisymmetric", k, ew.Forces[0][k], ew.Forces[4][k])
		}
	}
}
