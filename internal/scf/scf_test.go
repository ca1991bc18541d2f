package scf

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/lattice"
	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func siSetup(ecut float64, hybrid bool) (*grid.Grid, *hamiltonian.Hamiltonian) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), ecut)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()},
		hamiltonian.Config{Hybrid: hybrid, Params: xc.HSE06()})
	return g, h
}

func TestGroundStateConvergesLDA(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands() // 16 for Si8
	opt := Defaults()
	opt.TolDensity = 1e-6
	res, err := GroundState(g, h, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge: density error %g after %d iterations", res.DensityError, res.SCFIterations)
	}
	if e := wavefunc.OrthonormalityError(res.Psi, nb, g.NG); e > 1e-8 {
		t.Errorf("ground state not orthonormal: %g", e)
	}
	if n := potential.IntegrateDensity(g, res.Rho); math.Abs(n-32) > 1e-6 {
		t.Errorf("density integrates to %g, want 32", n)
	}
	if res.Energy.Total() >= 0 {
		t.Errorf("total energy %g, want negative (bound crystal)", res.Energy.Total())
	}
}

func TestGroundStateEigenResiduals(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands()
	res, err := GroundState(g, h, nb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ng := g.NG
	hp := make([]complex128, nb*ng)
	h.Apply(hp, res.Psi, nb)
	for j := 0; j < nb; j++ {
		p := res.Psi[j*ng : (j+1)*ng]
		hpj := hp[j*ng : (j+1)*ng]
		theta := real(linalg.Dot(p, hpj))
		var rn float64
		for s := 0; s < ng; s++ {
			d := hpj[s] - complex(theta, 0)*p[s]
			rn += real(d)*real(d) + imag(d)*imag(d)
		}
		rn = math.Sqrt(rn)
		if rn > 5e-2 {
			t.Errorf("band %d eigen-residual %g too large", j, rn)
		}
	}
}

// TestGroundStateWorkCounts pins what the Si8 LDA ground state at Ecut 3
// (nb = 16, so 32x32 Rayleigh-Ritz pencils) spends: SCF iterations, pencil
// solves and band applications of H, exactly. Every eigStep applies H to
// the nb bands and to their nb residuals, and the band energies apply it
// once more. A change to the pencil solver moves round-off, not these.
func TestGroundStateWorkCounts(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands()
	res, err := GroundState(g, h, nb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.SCFIterations != 15 || res.EigSteps != 60 || res.HApplications != 1936 {
		t.Errorf("SCF iterations %d, eigensolver steps %d, band applications of H %d; want 15, 60, 1936",
			res.SCFIterations, res.EigSteps, res.HApplications)
	}
	if want := 2*nb*res.EigSteps + nb; res.HApplications != want {
		t.Errorf("band applications of H %d, want 2nb per eigensolver step + nb = %d", res.HApplications, want)
	}
}

func TestGroundStateBandEnergiesOrderedAfterSort(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands()
	res, err := GroundState(g, h, nb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// The Ritz values should come out (weakly) ascending.
	for j := 1; j < nb; j++ {
		if res.BandEnergies[j] < res.BandEnergies[j-1]-1e-6 {
			t.Errorf("band energies not ascending at %d: %g < %g", j, res.BandEnergies[j], res.BandEnergies[j-1])
		}
	}
	_ = g
}

func TestGroundStateHybridConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid ground state is slow")
	}
	g, h := siSetup(3, true)
	nb := g.Cell.NumBands()
	opt := Defaults()
	opt.MaxSCF = 40
	opt.HybridOuter = 3
	opt.TolDensity = 1e-6
	res, err := GroundState(g, h, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("hybrid SCF did not converge: density error %g", res.DensityError)
	}
	if res.Energy.Exchange >= 0 {
		t.Errorf("exchange energy %g, want negative", res.Energy.Exchange)
	}
}

func TestTeterPreconditioner(t *testing.T) {
	// ~1 at x=0, decaying beyond; monotone in between.
	if math.Abs(teter(0)-1) > 1e-12 {
		t.Errorf("teter(0) = %g, want 1", teter(0))
	}
	if teter(10) > 0.1 {
		t.Errorf("teter(10) = %g, want small", teter(10))
	}
	prev := teter(0)
	for x := 0.1; x < 20; x += 0.1 {
		v := teter(x)
		if v > prev+1e-12 {
			t.Fatalf("teter not monotone at %g", x)
		}
		prev = v
	}
}

func TestGroundStateRejectsZeroBands(t *testing.T) {
	g, h := siSetup(3, false)
	if _, err := GroundState(g, h, 0, Defaults()); err == nil {
		t.Error("expected error for nb=0")
	}
}

// TestEigStepSingularBasisFails: an all-zero band has a zero residual,
// so the overlap of [psi | w] is singular and the step reports it, with
// psi left as it was, instead of rotating psi.
func TestEigStepSingularBasisFails(t *testing.T) {
	g, h := siSetup(3, false)
	nb, ng := g.Cell.NumBands(), g.NG
	psi := wavefunc.Random(g, nb, 1)
	h.UpdatePotential(potential.Density(g, psi, nb, 2))
	clear(psi[3*ng : 4*ng])
	before := append([]complex128(nil), psi...)
	err := eigStep(g, h, psi, nb, newEigWork(nb, ng), &Result{})
	if err == nil {
		t.Fatal("eigStep on a band set with a zero band returned no error")
	}
	if pencil := fmt.Sprintf("%dx%d", 2*nb, 2*nb); !strings.Contains(err.Error(), pencil) {
		t.Errorf("error %q does not name the %s pencil", err, pencil)
	}
	for i := range psi {
		if psi[i] != before[i] {
			t.Fatalf("psi changed at coefficient %d by the failed step", i)
		}
	}
}

// TestEigStepAllocation: the step works in its caller's eigWork - the two
// 2nb-band blocks, the pencil and the pencil solve's scratch, whose A
// matrix also takes the orthonormalization's overlap - so one warm step on
// Si8 (nb = 16) at one worker allocates at most 1 KB. The grid's and the Hamiltonian's scratch pools hand back what
// the warm step left in them only on the same P and without -race, so the
// measurement runs on one P and is skipped under -race.
func TestEigStepAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, h := siSetup(3, false)
	nb, ng := g.Cell.NumBands(), g.NG
	psi := wavefunc.Random(g, nb, 1)
	h.UpdatePotential(potential.Density(g, psi, nb, 2))
	ew := newEigWork(nb, ng)
	if err := eigStep(g, h, psi, nb, ew, &Result{}); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := eigStep(g, h, psi, nb, ew, &Result{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const want = 1024
	if got := m1.TotalAlloc - m0.TotalAlloc; got > want {
		t.Errorf("one eigStep (nb=%d, NG=%d) allocated %d B, want <= %d B", nb, ng, got, want)
	} else {
		t.Logf("one eigStep (nb=%d, NG=%d) allocated %d B", nb, ng, got)
	}
}

// TestACEOuterLoopReachesTheExactFixedPoint: the ACE outer loop and the
// exact-reference one converge to the same ground state. Run long enough
// for the fixed phase count's truncation to fade, both ground states,
// evaluated with the exact exchange of their own orbitals, agree to 1e-6
// Ha: routing the hybrid SCF through ACE moves where a fixed phase count
// stops, not where the loop goes.
func TestACEOuterLoopReachesTheExactFixedPoint(t *testing.T) {
	energy := func(useACE bool) float64 {
		g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 2)
		h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()},
			hamiltonian.Config{Hybrid: true, UseACE: useACE, Params: xc.HSE06()})
		nb := g.Cell.NumBands()
		opt := Defaults()
		opt.HybridOuter = 10
		res, err := GroundState(g, h, nb, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The energy of the orbitals themselves: their density and the
		// exact exchange referenced to them.
		h.UpdatePotential(potential.Density(g, res.Psi, nb, 2))
		if err := h.SetFockOrbitals(res.Psi, nb); err != nil {
			t.Fatal(err)
		}
		return h.TotalEnergy(res.Psi, nb, 2).Total()
	}
	exact, ace := energy(false), energy(true)
	t.Logf("exact %.10f ACE %.10f diff %.2e", exact, ace, ace-exact)
	if d := math.Abs(ace - exact); d > 1e-6 {
		t.Errorf("ground-state energy %.10f Ha through ACE, %.10f Ha with exact exchange: %.2e apart", ace, exact, d)
	}
}
