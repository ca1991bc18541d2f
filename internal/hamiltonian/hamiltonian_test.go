package hamiltonian

import (
	"math"
	"math/cmplx"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func siPots() map[int]*pseudo.Potential {
	return map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
}

func buildH(t *testing.T, hybrid bool, ecut float64) (*grid.Grid, *Hamiltonian) {
	t.Helper()
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), ecut)
	h := New(g, siPots(), Config{Hybrid: hybrid, Params: xc.HSE06()})
	return g, h
}

func TestHamiltonianHermitianSemiLocal(t *testing.T) {
	g, h := buildH(t, false, 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 1)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	hp := make([]complex128, nb*g.NG)
	h.Apply(hp, psi, nb)
	s := make([]complex128, nb*nb)
	linalg.Overlap(s, psi, hp, nb, nb, g.NG)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if cmplx.Abs(s[i*nb+j]-cmplx.Conj(s[j*nb+i])) > 1e-9 {
				t.Fatalf("H not Hermitian at (%d,%d): %v vs %v", i, j, s[i*nb+j], s[j*nb+i])
			}
		}
	}
}

func TestHamiltonianHermitianHybrid(t *testing.T) {
	g, h := buildH(t, true, 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 1)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	h.SetFockOrbitals(psi, nb)
	hp := make([]complex128, nb*g.NG)
	h.Apply(hp, psi, nb)
	s := make([]complex128, nb*nb)
	linalg.Overlap(s, psi, hp, nb, nb, g.NG)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if cmplx.Abs(s[i*nb+j]-cmplx.Conj(s[j*nb+i])) > 1e-9 {
				t.Fatalf("hybrid H not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}

func TestKineticOfPlaneWave(t *testing.T) {
	// With zero potential state (fresh H, no UpdatePotential), H acting on
	// a single plane wave gives (1/2)|G|^2 plus the nonlocal term; kill the
	// nonlocal by checking only the kinetic factor identity.
	g, h := buildH(t, false, 3)
	for s := 0; s < g.NG; s += 50 {
		want := 0.5 * g.G2[s]
		if math.Abs(h.KineticFactor(s)-want) > 1e-12 {
			t.Fatalf("kinetic factor %d = %g, want %g", s, h.KineticFactor(s), want)
		}
	}
}

func TestVelocityGaugeShiftsKinetic(t *testing.T) {
	g, h := buildH(t, false, 3)
	h.SetField([3]float64{0.1, -0.2, 0.3})
	for s := 0; s < g.NG; s += 37 {
		gv := g.GVec[s]
		want := 0.5 * ((gv[0]+0.1)*(gv[0]+0.1) + (gv[1]-0.2)*(gv[1]-0.2) + (gv[2]+0.3)*(gv[2]+0.3))
		if math.Abs(h.KineticFactor(s)-want) > 1e-12 {
			t.Fatalf("gauge kinetic factor wrong at %d", s)
		}
	}
	if h.Field() != [3]float64{0.1, -0.2, 0.3} {
		t.Error("Field() does not round-trip")
	}
}

func TestTotalEnergyPieces(t *testing.T) {
	g, h := buildH(t, true, 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 1)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	h.SetFockOrbitals(psi, nb)
	eb := h.TotalEnergy(psi, nb, 2)
	if eb.Kinetic <= 0 {
		t.Errorf("kinetic %g, want positive", eb.Kinetic)
	}
	if eb.Exchange >= 0 {
		t.Errorf("exchange %g, want negative", eb.Exchange)
	}
	if eb.Hartree <= 0 {
		t.Errorf("Hartree %g, want positive", eb.Hartree)
	}
	if e := eb.Total(); math.IsNaN(e) || math.IsInf(e, 0) {
		t.Error("total energy not finite")
	}
	// Total is the sum of the pieces.
	sum := eb.Kinetic + eb.Nonlocal + eb.Hartree + eb.XC + eb.Local + eb.Exchange
	if math.Abs(sum-eb.Total()) > 1e-12 {
		t.Error("Total() does not sum the pieces")
	}
}

func TestBandEnergiesMatchRayleighQuotients(t *testing.T) {
	g, h := buildH(t, false, 3)
	nb := 3
	psi := wavefunc.Random(g, nb, 2)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	be := h.BandEnergies(psi, nb)
	hp := make([]complex128, nb*g.NG)
	h.Apply(hp, psi, nb)
	for j := 0; j < nb; j++ {
		want := real(linalg.Dot(psi[j*g.NG:(j+1)*g.NG], hp[j*g.NG:(j+1)*g.NG]))
		if math.Abs(be[j]-want) > 1e-10 {
			t.Fatalf("band energy %d = %g, want %g", j, be[j], want)
		}
	}
}

func TestExScale(t *testing.T) {
	_, hLDA := buildH(t, false, 3)
	if hLDA.ExScale() != 1 {
		t.Errorf("semi-local ExScale = %g, want 1", hLDA.ExScale())
	}
	_, hHyb := buildH(t, true, 3)
	if hHyb.ExScale() != 0.75 {
		t.Errorf("hybrid ExScale = %g, want 0.75", hHyb.ExScale())
	}
}

func TestACEModeMatchesExactOnSpan(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	nb := 4
	psi := wavefunc.Random(g, nb, 3)
	rho := potential.Density(g, psi, nb, 2)

	hExact := New(g, siPots(), Config{Hybrid: true, Params: xc.HSE06()})
	hExact.UpdatePotential(rho)
	hExact.SetFockOrbitals(psi, nb)

	hACE := New(g, siPots(), Config{Hybrid: true, UseACE: true, Params: xc.HSE06()})
	hACE.UpdatePotential(rho)
	hACE.SetFockOrbitals(psi, nb)

	a := make([]complex128, nb*g.NG)
	b := make([]complex128, nb*g.NG)
	hExact.Apply(a, psi, nb)
	hACE.Apply(b, psi, nb)
	if d := wavefunc.MaxDiff(a, b); d > 1e-7 {
		t.Errorf("ACE H application differs on reference span by %g", d)
	}
}

func BenchmarkApplySemiLocal(b *testing.B) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 4)
	h := New(g, siPots(), Config{})
	nb := 8
	psi := wavefunc.Random(g, nb, 1)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	hp := make([]complex128, nb*g.NG)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Apply(hp, psi, nb)
	}
}

func BenchmarkApplyHybrid(b *testing.B) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 4)
	h := New(g, siPots(), Config{Hybrid: true, Params: xc.HSE06()})
	nb := 8
	psi := wavefunc.Random(g, nb, 1)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	h.SetFockOrbitals(psi, nb)
	hp := make([]complex128, nb*g.NG)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Apply(hp, psi, nb)
	}
}

// TestACEBuildFailureIsAnError: a degenerate reference set (zero band)
// makes the ACE Cholesky fail. The refresh must (1) return the error,
// (2) leave no operator to apply - Apply after the dropped error panics
// rather than running stale or exact exchange - and (3) let a later
// refresh with a healthy set build the compression again, exact on its
// reference.
func TestACEBuildFailureIsAnError(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	nb := 4
	h := New(g, siPots(), Config{Hybrid: true, UseACE: true, Params: xc.HSE06()})
	psi := wavefunc.Random(g, nb, 11)
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	hp := make([]complex128, nb*g.NG)

	// Degenerate set: band 0 zeroed makes -Phi^H V_X Phi singular.
	degenerate := wavefunc.Clone(psi)
	for i := 0; i < g.NG; i++ {
		degenerate[i] = 0
	}
	if err := h.SetFockOrbitals(degenerate, nb); err == nil {
		t.Fatal("ACE build on a degenerate reference set returned no error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Apply after a failed ACE build did not panic")
			}
		}()
		h.Apply(hp, psi, nb)
	}()

	// A healthy refresh builds ACE again: on its reference it is the exact
	// operator of a hybrid Hamiltonian that never requested ACE.
	if err := h.SetFockOrbitals(psi, nb); err != nil {
		t.Fatalf("ACE build on a healthy set: %v", err)
	}
	ref := New(g, siPots(), Config{Hybrid: true, Params: xc.HSE06()})
	ref.UpdatePotential(rho)
	if err := ref.SetFockOrbitals(psi, nb); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, nb*g.NG)
	h.Apply(hp, psi, nb)
	ref.Apply(want, psi, nb)
	if d := wavefunc.MaxDiff(hp, want); d > 1e-10 {
		t.Errorf("rebuilt ACE differs from the exact operator on its reference by %g", d)
	}
}

// RebuildGeometry must refresh both forms of the local pseudopotential the
// assembly reads (dense real space and wave-box G space): after an atom
// moves, UpdatePotential gives the bits of a Hamiltonian built on the moved
// cell, at the hybrid's exchange attenuation and without it.
func TestRebuildGeometryRefreshesLocalPotential(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		g, h := buildH(t, hybrid, 3)
		nb := g.Cell.NumBands()
		rho := potential.Density(g, wavefunc.Random(g, nb, 5), nb, 2)
		h.UpdatePotential(rho)
		before := append([]float64(nil), h.veffWave...)

		g.Cell.Atoms[0].Pos[0] += 0.3
		h.RebuildGeometry()
		h.UpdatePotential(rho)
		fresh := New(g, siPots(), Config{Hybrid: hybrid, Params: xc.HSE06()})
		fresh.UpdatePotential(rho)
		var moved float64
		for i, v := range h.veffWave {
			if v != fresh.veffWave[i] {
				t.Fatalf("hybrid %v: veffWave[%d] = %.17g after RebuildGeometry, %.17g on a fresh Hamiltonian", hybrid, i, v, fresh.veffWave[i])
			}
			moved = math.Max(moved, math.Abs(v-before[i]))
		}
		if h.PotEnergies != fresh.PotEnergies {
			t.Errorf("hybrid %v: energies %v after RebuildGeometry, %v fresh", hybrid, h.PotEnergies, fresh.PotEnergies)
		}
		if moved < 1e-4 {
			t.Errorf("hybrid %v: potential moved by %g only; the displacement did not reach it", hybrid, moved)
		}
	}
}

// UpdatePotential allocates nothing in steady state at one worker: the
// packed dense slab, the wave-box scratch and the FFT line buffers belong
// to the grid, and veffWave is written in place.
func TestUpdatePotentialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g := grid.MustNew(lattice.MustSiliconSupercell(2, 1, 1), 3)
	h := New(g, siPots(), Config{})
	nb := g.Cell.NumBands()
	rho := potential.Density(g, wavefunc.Random(g, nb, 5), nb, 2)
	h.UpdatePotential(rho) // warm the grid's scratch
	if a := testing.AllocsPerRun(10, func() { h.UpdatePotential(rho) }); a > 0 {
		t.Errorf("UpdatePotential allocates %.1f objects per call in steady state, want 0", a)
	}
}
