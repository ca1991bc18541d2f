package potential

import (
	"math"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
)

func si8(t *testing.T, ecut float64) *grid.Grid {
	t.Helper()
	return grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), ecut)
}

func TestDensityIntegratesToElectronCount(t *testing.T) {
	g := si8(t, 4)
	nb := g.Cell.NumBands()
	psi := wavefunc.Random(g, nb, 1)
	rho := Density(g, psi, nb, 2)
	n := IntegrateDensity(g, rho)
	want := g.Cell.NumElectrons()
	if math.Abs(n-want) > 1e-8*want {
		t.Errorf("integrated density %g, want %g", n, want)
	}
	for i, r := range rho {
		if r < 0 {
			t.Fatalf("negative density at %d: %g", i, r)
		}
	}
}

func TestHartreeOfGaussianChargePositive(t *testing.T) {
	// A neutral-compensated Gaussian blob: VH at the blob center must
	// exceed VH far away (repulsive potential hill at the charge).
	g := si8(t, 4)
	rho := make([]float64, g.NDTot)
	center := [3]float64{g.Cell.L[0] / 2, g.Cell.L[1] / 2, g.Cell.L[2] / 2}
	idx := 0
	sigma := 1.5
	for ix := 0; ix < g.ND[0]; ix++ {
		x := float64(ix) / float64(g.ND[0]) * g.Cell.L[0]
		for iy := 0; iy < g.ND[1]; iy++ {
			y := float64(iy) / float64(g.ND[1]) * g.Cell.L[1]
			for iz := 0; iz < g.ND[2]; iz++ {
				z := float64(iz) / float64(g.ND[2]) * g.Cell.L[2]
				r2 := sq(x-center[0]) + sq(y-center[1]) + sq(z-center[2])
				rho[idx] = math.Exp(-r2 / (2 * sigma * sigma))
				idx++
			}
		}
	}
	vh, eh := Hartree(g, rho)
	if eh <= 0 {
		t.Errorf("Hartree energy %g, want positive", eh)
	}
	// Potential at center vs at corner.
	ci := (g.ND[0]/2*g.ND[1]+g.ND[1]/2)*g.ND[2] + g.ND[2]/2
	if vh[ci] <= vh[0] {
		t.Errorf("VH(center)=%g not above VH(corner)=%g", vh[ci], vh[0])
	}
}

func TestHartreeEnergyQuadraticScaling(t *testing.T) {
	g := si8(t, 3)
	rho := make([]float64, g.NDTot)
	for i := range rho {
		rho[i] = math.Sin(float64(i)) + 1.5
	}
	_, e1 := Hartree(g, rho)
	rho2 := make([]float64, len(rho))
	for i := range rho {
		rho2[i] = 2 * rho[i]
	}
	_, e2 := Hartree(g, rho2)
	if math.Abs(e2-4*e1) > 1e-8*math.Abs(e1) {
		t.Errorf("Hartree energy not quadratic: E(2rho)=%g, 4E(rho)=%g", e2, 4*e1)
	}
}

func TestBuildVlocRealAndAttractiveAtAtoms(t *testing.T) {
	g := si8(t, 4)
	vloc := BuildVloc(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()})
	// Mean is zero by the G=0 convention.
	var mean float64
	for _, v := range vloc {
		mean += v
	}
	mean /= float64(len(vloc))
	if math.Abs(mean) > 1e-8 {
		t.Errorf("Vloc mean = %g, want 0 (G=0 convention)", mean)
	}
	// The potential at an atom site must be below the cell average: find
	// the dense grid point nearest the first atom.
	atom := g.Cell.Atoms[0].Pos
	ix := int(atom[0]/g.Cell.L[0]*float64(g.ND[0])+0.5) % g.ND[0]
	iy := int(atom[1]/g.Cell.L[1]*float64(g.ND[1])+0.5) % g.ND[1]
	iz := int(atom[2]/g.Cell.L[2]*float64(g.ND[2])+0.5) % g.ND[2]
	v := vloc[(ix*g.ND[1]+iy)*g.ND[2]+iz]
	if v >= 0 {
		t.Errorf("Vloc at atom = %g, want negative (attractive core)", v)
	}
}

func TestSCFPotentialEnergiesFinite(t *testing.T) {
	g := si8(t, 4)
	nb := g.Cell.NumBands()
	psi := wavefunc.Random(g, nb, 2)
	rho := Density(g, psi, nb, 2)
	vloc := BuildVloc(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()})
	veff, en := SCFPotential(g, rho, vloc, 1)
	if len(veff) != g.NDTot {
		t.Fatal("veff size mismatch")
	}
	for _, e := range []float64{en.Hartree, en.XC, en.Local} {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("non-finite energy %v", en)
		}
	}
	if en.Hartree <= 0 {
		t.Errorf("Hartree energy %g, want positive", en.Hartree)
	}
	if en.XC >= 0 {
		t.Errorf("XC energy %g, want negative", en.XC)
	}
}

func TestDensityDiffZeroForIdentical(t *testing.T) {
	g := si8(t, 3)
	rho := make([]float64, g.NDTot)
	for i := range rho {
		rho[i] = float64(i % 7)
	}
	if d := DensityDiff(g, rho, rho, 32); d != 0 {
		t.Errorf("DensityDiff identical = %g", d)
	}
	rho2 := make([]float64, len(rho))
	copy(rho2, rho)
	rho2[0] += 1
	if d := DensityDiff(g, rho, rho2, 32); d <= 0 {
		t.Errorf("DensityDiff different = %g, want > 0", d)
	}
}

func sq(x float64) float64 { return x * x }
