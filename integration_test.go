// Integration tests: full pipelines through the public surface of the
// library - ground state -> excitation -> propagation -> observables -
// exercising the same paths as cmd/ptdft and the examples.
package ptdft_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"ptdft/internal/checkpoint"
	"ptdft/internal/core"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/lattice"
	"ptdft/internal/linalg"
	"ptdft/internal/observe"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/scf"
	"ptdft/internal/units"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func TestFullPipelineDeterministic(t *testing.T) {
	// Two identical serial runs must agree to near round-off: the
	// library's only nondeterminism is parallel reduction order, which is
	// confined to density accumulation and kept small by design.
	runOnce := func() float64 {
		g, psi, nb := fixtureT(t)
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
		sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: kick}
		p := core.NewPTCN(sys, core.DefaultPTCN())
		cur := psi
		var err error
		for i := 0; i < 2; i++ {
			cur, _, err = p.Step(cur, 1.0)
			if err != nil {
				t.Fatal(err)
			}
		}
		return observe.Energy(sys, cur, p.Time).Total()
	}
	e1 := runOnce()
	e2 := runOnce()
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("runs differ: %.12f vs %.12f", e1, e2)
	}
}

func TestPulseAbsorbsEnergyAndExcitesCarriers(t *testing.T) {
	// The laserpulse workflow: driving at 380 nm must pump energy and
	// promote electrons out of the initial subspace.
	g, psi0, nb := fixtureT(t)
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
	dt := units.AttosecondsToAU(24)
	steps := 6
	pulse := laser.New380nm(0.02, dt*float64(steps)/2, dt*float64(steps)/6)
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: pulse}
	e0 := observe.Energy(sys, psi0, 0).Total()
	p := core.NewPTCN(sys, core.DefaultPTCN())
	cur := wavefunc.Clone(psi0)
	var err error
	for i := 0; i < steps; i++ {
		cur, _, err = p.Step(cur, dt)
		if err != nil {
			t.Fatal(err)
		}
	}
	eEnd := observe.Energy(sys, cur, p.Time).Total()
	if eEnd <= e0 {
		t.Errorf("no energy absorbed: %.8f -> %.8f", e0, eEnd)
	}
	nexc := observe.ExcitedElectrons(sys, psi0, cur)
	if nexc <= 0 || nexc > 32 {
		t.Errorf("excited electrons = %g, want in (0, 32)", nexc)
	}
}

func TestCheckpointRestartContinuesExactly(t *testing.T) {
	// 2 steps + checkpoint + 2 steps == 4 continuous steps.
	g, psi0, nb := fixtureT(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	run := func(psi []complex128, t0 float64, steps int) ([]complex128, float64) {
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
		sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: kick}
		p := core.NewPTCN(sys, core.DefaultPTCN())
		p.Time = t0
		cur := wavefunc.Clone(psi)
		var err error
		for i := 0; i < steps; i++ {
			cur, _, err = p.Step(cur, 1.0)
			if err != nil {
				t.Fatal(err)
			}
		}
		return cur, p.Time
	}
	continuous, _ := run(psi0, 0, 4)

	half, tHalf := run(psi0, 0, 2)
	st := &checkpoint.State{Time: tHalf, Step: 2, NBands: nb, NG: g.NG, Natom: 8, Ecut: 3, Psi: half}
	path := t.TempDir() + "/mid.ckp"
	if err := checkpoint.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compatible(nb, g.NG, 8, 3, false, 0, false); err != nil {
		t.Fatal(err)
	}
	resumed, _ := run(loaded.Psi, loaded.Time, 2)

	rhoA := potential.Density(g, continuous, nb, 2)
	rhoB := potential.Density(g, resumed, nb, 2)
	if d := potential.DensityDiff(g, rhoA, rhoB, 32); d > 1e-9 {
		t.Errorf("restart diverged from continuous run by %g", d)
	}
}

func TestGaugeInvarianceUnderBandRotation(t *testing.T) {
	// The PT formulation's foundation: physical observables depend only on
	// the density matrix P = Psi Psi^*, which is invariant under unitary
	// rotations among occupied bands. Verify the density and the PT
	// residual norm are rotation invariant.
	g, psi, nb := fixtureT(t)
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)

	rng := rand.New(rand.NewSource(99))
	// Random unitary from QR-free Cholesky trick: orthonormalize a random
	// perturbation of the identity.
	u := make([]complex128, nb*nb)
	for i := 0; i < nb; i++ {
		u[i*nb+i] = 1
		for j := 0; j < nb; j++ {
			u[i*nb+j] += complex(0.2*rng.NormFloat64(), 0.2*rng.NormFloat64())
		}
	}
	rot := make([]complex128, nb*g.NG)
	linalg.ApplyMatrix(rot, psi, u, nb, nb, g.NG)
	if err := wavefunc.Orthonormalize(rot, nb, g.NG); err != nil {
		t.Fatal(err)
	}

	rhoRot := potential.Density(g, rot, nb, 2)
	var maxd float64
	for i := range rho {
		if d := math.Abs(rho[i] - rhoRot[i]); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Errorf("density not gauge invariant: max diff %g", maxd)
	}

	// PT residual Frobenius norm is gauge covariant (R -> R U), so its
	// norm is invariant.
	resNorm := func(p []complex128) float64 {
		hp := make([]complex128, nb*g.NG)
		h.Apply(hp, p, nb)
		s := make([]complex128, nb*nb)
		linalg.Overlap(s, p, hp, nb, nb, g.NG)
		r := make([]complex128, nb*g.NG)
		linalg.ApplyMatrix(r, p, s, nb, nb, g.NG)
		var n float64
		for i := range r {
			d := hp[i] - r[i]
			n += real(d)*real(d) + imag(d)*imag(d)
		}
		return math.Sqrt(n)
	}
	n1, n2 := resNorm(psi), resNorm(rot)
	if math.Abs(n1-n2) > 1e-8*(1+n1) {
		t.Errorf("PT residual norm not gauge invariant: %g vs %g", n1, n2)
	}
}

func TestACEPropagationTracksExact(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid propagation is slow")
	}
	// One hybrid PT-CN step with the ACE-compressed exchange against the
	// exact operator: the compression is exact on the reference span, so
	// one step should agree closely.
	g, psi0, nb := fixtureT(t)
	kick := &laser.Kick{K: 0.02, Pol: [3]float64{0, 0, 1}}
	step := func(useACE bool) []float64 {
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{Hybrid: true, UseACE: useACE, Params: xc.HSE06()})
		sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: kick}
		p := core.NewPTCN(sys, core.DefaultPTCN())
		out, _, err := p.Step(wavefunc.Clone(psi0), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return potential.Density(g, out, nb, 2)
	}
	rhoExact := step(false)
	rhoACE := step(true)
	if d := potential.DensityDiff(g, rhoExact, rhoACE, 32); d > 1e-4 {
		t.Errorf("ACE propagation deviates from exact by %g", d)
	}
}

func TestOrbitalNormsPreservedThroughPipeline(t *testing.T) {
	g, psi, nb := fixtureT(t)
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{})
	kick := &laser.Kick{K: 0.05, Pol: [3]float64{0, 0, 1}}
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: kick}
	p := core.NewPTCN(sys, core.DefaultPTCN())
	cur := psi
	var err error
	for i := 0; i < 3; i++ {
		cur, _, err = p.Step(cur, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nb; b++ {
			c := cur[b*g.NG : (b+1)*g.NG]
			var n float64
			for _, v := range c {
				n += real(v)*real(v) + imag(v)*imag(v)
			}
			if math.Abs(n-1) > 1e-10 {
				t.Fatalf("band %d norm %g after step %d", b, n, i)
			}
		}
	}
}

// The shared laptop-scale fixture of the root tests and benchmarks: a
// converged semi-local Si8 ground state at Ecut 3, solved once per process.
var (
	fixOnce sync.Once
	fixG    *grid.Grid
	fixPsi  []complex128
	fixNB   int
)

func siPots() map[int]*pseudo.Potential {
	return map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
}

// fixtureT returns the fixture's grid, a private copy of its orbitals and
// the band count.
func fixtureT(tb testing.TB) (*grid.Grid, []complex128, int) {
	tb.Helper()
	fixOnce.Do(func() {
		cell := lattice.MustSiliconSupercell(1, 1, 1)
		fixG = grid.MustNew(cell, 3)
		fixNB = cell.NumBands()
		h := hamiltonian.New(fixG, siPots(), hamiltonian.Config{})
		res, err := scf.GroundState(fixG, h, fixNB, scf.Defaults())
		if err != nil {
			panic(err)
		}
		fixPsi = res.Psi
	})
	return fixG, wavefunc.Clone(fixPsi), fixNB
}

// Hermiticity spot check at the integration level: the full hybrid H with
// a laser field applied must stay Hermitian.
func TestFullHybridHamiltonianHermitianWithField(t *testing.T) {
	g, psi, nb := fixtureT(t)
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{Hybrid: true, Params: xc.HSE06()})
	rho := potential.Density(g, psi, nb, 2)
	h.UpdatePotential(rho)
	h.SetFockOrbitals(psi, nb)
	h.SetField([3]float64{0.01, -0.02, 0.03})
	hp := make([]complex128, nb*g.NG)
	h.Apply(hp, psi, nb)
	s := make([]complex128, nb*nb)
	linalg.Overlap(s, psi, hp, nb, nb, g.NG)
	for i := 0; i < nb; i++ {
		for j := i; j < nb; j++ {
			if cmplx.Abs(s[i*nb+j]-cmplx.Conj(s[j*nb+i])) > 1e-9 {
				t.Fatalf("H not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}
