package fock

import (
	"math"
	"math/cmplx"
	"testing"

	"ptdft/internal/fourier"
	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func setup(t *testing.T, nb int) (*grid.Grid, []complex128, *Operator) {
	t.Helper()
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	phi := wavefunc.Random(g, nb, 42)
	op := NewOperator(g, xc.HSE06(), phi, nb)
	return g, phi, op
}

func TestFockHermitian(t *testing.T) {
	g, _, op := setup(t, 4)
	a := wavefunc.Random(g, 2, 7)
	ng := g.NG
	va := make([]complex128, 2*ng)
	op.Apply(va, a, 2)
	// <a_0|V a_1> == conj(<a_1|V a_0>)
	m01 := linalg.Dot(a[:ng], va[ng:])
	m10 := linalg.Dot(a[ng:], va[:ng])
	if cmplx.Abs(m01-cmplx.Conj(m10)) > 1e-9*(1+cmplx.Abs(m01)) {
		t.Errorf("Fock operator not Hermitian: %v vs conj %v", m01, cmplx.Conj(m10))
	}
}

func TestFockNegativeDefiniteOnSpan(t *testing.T) {
	g, phi, op := setup(t, 4)
	ng := g.NG
	v := make([]complex128, 4*ng)
	op.Apply(v, phi, 4)
	for j := 0; j < 4; j++ {
		e := real(linalg.Dot(phi[j*ng:(j+1)*ng], v[j*ng:(j+1)*ng]))
		if e >= 0 {
			t.Errorf("band %d: <phi|Vx phi> = %g, want negative", j, e)
		}
	}
}

func TestFockEnergyNegative(t *testing.T) {
	g, phi, op := setup(t, 4)
	_ = g
	e := op.Energy(phi, 4)
	if e >= 0 {
		t.Errorf("exchange energy %g, want negative", e)
	}
}

func TestFockLinear(t *testing.T) {
	g, _, op := setup(t, 3)
	ng := g.NG
	a := wavefunc.Random(g, 1, 11)
	b := wavefunc.Random(g, 1, 13)
	alpha := complex(0.7, -0.3)
	c := make([]complex128, ng)
	for i := range c {
		c[i] = a[i] + alpha*b[i]
	}
	va := make([]complex128, ng)
	vb := make([]complex128, ng)
	vc := make([]complex128, ng)
	op.Apply(va, a, 1)
	op.Apply(vb, b, 1)
	op.Apply(vc, c, 1)
	for i := range vc {
		want := va[i] + alpha*vb[i]
		if cmplx.Abs(vc[i]-want) > 1e-9 {
			t.Fatalf("Fock not linear at %d", i)
		}
	}
}

func TestFockKernelMatchesXC(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	hyb := xc.HSE06()
	kernel := BuildKernel(g, hyb)
	// Index 0 is G=0: the finite screened limit.
	want := math.Pi / (hyb.Omega * hyb.Omega)
	if math.Abs(kernel[0]-want) > 1e-9*want {
		t.Errorf("kernel[G=0] = %g, want %g", kernel[0], want)
	}
	for i, k := range kernel {
		if k <= 0 {
			t.Fatalf("kernel not positive at %d: %g", i, k)
		}
	}
}

func TestSetOrbitalsChangesOperator(t *testing.T) {
	g, phi, op := setup(t, 3)
	ng := g.NG
	test := wavefunc.Random(g, 1, 5)
	v1 := make([]complex128, ng)
	op.Apply(v1, test, 1)
	phi2 := wavefunc.Random(g, 3, 99)
	op.SetOrbitals(phi2, 3)
	v2 := make([]complex128, ng)
	op.Apply(v2, test, 1)
	if wavefunc.MaxDiff(v1, v2) < 1e-10 {
		t.Error("operator unchanged after SetOrbitals")
	}
	_ = phi
}

func TestACEMatchesExactOnSpan(t *testing.T) {
	g, phi, op := setup(t, 4)
	ng := g.NG
	ace, err := NewACE(op, phi, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ace.nb != 4 {
		t.Errorf("ACE rank %d, want 4", ace.nb)
	}
	exact := make([]complex128, 4*ng)
	op.Apply(exact, phi, 4)
	compressed := make([]complex128, 4*ng)
	ace.Apply(compressed, phi, 4)
	if d := wavefunc.MaxDiff(exact, compressed); d > 1e-8 {
		t.Errorf("ACE differs from exact on reference span by %g", d)
	}
}

func TestACEHermitianNegative(t *testing.T) {
	g, phi, op := setup(t, 4)
	ng := g.NG
	ace, err := NewACE(op, phi, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := wavefunc.Random(g, 2, 21)
	vx := make([]complex128, 2*ng)
	ace.Apply(vx, x, 2)
	m01 := linalg.Dot(x[:ng], vx[ng:])
	m10 := linalg.Dot(x[ng:], vx[:ng])
	if cmplx.Abs(m01-cmplx.Conj(m10)) > 1e-9*(1+cmplx.Abs(m01)) {
		t.Error("ACE operator not Hermitian")
	}
	e := real(linalg.Dot(x[:ng], vx[:ng]))
	if e > 1e-12 {
		t.Errorf("ACE quadratic form %g, want <= 0", e)
	}
}

// TestApplyToReferenceMatchesApply pins the conjugate-pair symmetry: the
// halved nb(nb+1)/2-solve path must agree with the generic band-by-band
// application to well below 1e-12, for both the screened HSE06 kernel and
// an unscreened hybrid. At three workers the fold's static split runs
// uneven partner runs (nb = 4, 5) and a single partner (nb = 1).
func TestApplyToReferenceMatchesApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		hyb  xc.HybridParams
	}{
		{"screened_hse06", xc.HSE06()},
		{"hybrid_unscreened", xc.HybridParams{Alpha: 0.3, Omega: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Force goroutine fan-out so the fold's worker partials and
			// worker-bound workspaces are exercised even on 1-CPU hosts.
			defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(3))
			g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
			ng := g.NG
			ntot := g.NTot
			kernel := BuildKernel(g, tc.hyb)
			for _, nb := range []int{1, 4, 5} {
				phi := wavefunc.Random(g, nb, 42)
				op := NewOperator(g, tc.hyb, phi, nb)
				// Independent oracle: the spelled-out nb^2 loop of one-sided
				// contractions, bypassing Apply entirely so neither the
				// reference detection nor the pair fold is involved in
				// producing the expected values. What this checks is the
				// fold; the transforms underneath are pinned against the
				// naive DFT in internal/fourier.
				fws := g.Plan.NewWorkspace()
				phiR := lanes.New(nb * ntot)
				for i := 0; i < nb; i++ {
					g.ToRealSlabWS(phiR.Row(i, ntot), phi[i*ng:(i+1)*ng], fws)
				}
				want := make([]complex128, nb*ng)
				acc, pairs := lanes.New(ntot), lanes.New(lanes.Width*ntot)
				for j := 0; j < nb; j++ {
					acc.Zero()
					for i := 0; i < nb; i++ {
						pl := fourier.PairLanes{N: 1}
						pl.A[0], pl.B[0], pl.AccB[0] = phiR.Row(i, ntot), phiR.Row(j, ntot), acc
						g.Plan.ContractPairsWS(&pl, pairs, kernel, -tc.hyb.Alpha, []*fourier.Workspace3{fws})
					}
					g.FromRealSlabWS(want[j*ng:(j+1)*ng], acc, fws)
				}
				got := make([]complex128, nb*ng)
				op.ApplyToReference(got)
				if d := wavefunc.MaxDiff(want, got); d > 1e-12 {
					t.Errorf("nb=%d: symmetry path differs from generic by %g", nb, d)
				}
				// Apply on the full reference set routes through the
				// symmetric path and must agree as well.
				got2 := make([]complex128, nb*ng)
				op.Apply(got2, phi, nb)
				if d := wavefunc.MaxDiff(want, got2); d > 1e-12 {
					t.Errorf("nb=%d: Apply-on-reference differs from generic by %g", nb, d)
				}
			}
		})
	}
}

// TestEnergyMatchesApplyDot pins the streaming Energy against the
// spelled-out sum_j Re<psi_j|V_X psi_j>. On the reference set both run the
// one fold and the same sphere dot, so they agree bit for bit (the energy
// internal/dist takes from its exchange product is this sum); off it,
// band-by-band one-sided applications agree to round-off.
func TestEnergyMatchesApplyDot(t *testing.T) {
	g, phi, op := setup(t, 4)
	ng := g.NG
	dot := func(psi, vx []complex128, nb int) float64 {
		var e float64
		for j := 0; j < nb; j++ {
			e += real(linalg.Dot(psi[j*ng:(j+1)*ng], vx[j*ng:(j+1)*ng]))
		}
		return e
	}
	vx := make([]complex128, 4*ng)
	op.Apply(vx, phi, 4)
	if want, got := dot(phi, vx, 4), op.Energy(phi, 4); got != want {
		t.Errorf("reference-set energy %v, want %v bit for bit", got, want)
	}
	psi := wavefunc.Random(g, 3, 77)
	vx = make([]complex128, 3*ng)
	for j := 0; j < 3; j++ {
		op.Apply(vx[j*ng:(j+1)*ng], psi[j*ng:(j+1)*ng], 1)
	}
	if want, got := dot(psi, vx, 3), op.Energy(psi, 3); math.Abs(want-got) > 1e-12*(1+math.Abs(want)) {
		t.Errorf("generic energy %g, want %g", got, want)
	}
}

// TestApplyToReferenceRepeatsBits: at two workers the fold splits every
// band's partners statically and adds the partial rows in worker order, so
// repeated applications give the same bits whichever goroutine runs first.
func TestApplyToReferenceRepeatsBits(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(2))
	g, _, op := setup(t, 7)
	first := make([]complex128, 7*g.NG)
	op.ApplyToReference(first)
	for run := 0; run < 4; run++ {
		again := make([]complex128, 7*g.NG)
		op.ApplyToReference(again)
		if d := wavefunc.MaxDiff(first, again); d != 0 {
			t.Fatalf("run %d differs from the first by %g", run+1, d)
		}
	}
}

// TestFockApplyAllocs pins the zero-allocation contract of the hot path:
// once the operator's workspace pool is warm, a steady-state Apply over the
// lane-blocked SoA layout performs no heap allocations. Workers are pinned
// to 1 so the loop runs on the calling goroutine (goroutine spawns allocate
// by design and are per-call, not per-band). The iterations always run -
// under -race they exercise the SoA slab path for data races while the
// allocation assertions are suspended (sync.Pool drops items under the race
// detector, so the counts are meaningless there).
func TestFockApplyAllocs(t *testing.T) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 3)
	nb := 4
	phi := wavefunc.Random(g, nb, 1)
	op := NewOperator(g, xc.HSE06(), phi, nb)
	x := wavefunc.Random(g, 1, 2)
	v := make([]complex128, g.NG)
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	op.Apply(v, x, 1) // warm the workspace pool
	if a := testing.AllocsPerRun(10, func() { op.Apply(v, x, 1) }); a > 0 && !raceEnabled {
		t.Errorf("steady-state Apply allocates %v per band application, want 0", a)
	}
	full := make([]complex128, nb*g.NG)
	op.ApplyToReference(full) // warm the symmetric path's accumulator
	if a := testing.AllocsPerRun(5, func() { op.ApplyToReference(full) }); a > 0 && !raceEnabled {
		t.Errorf("steady-state ApplyToReference allocates %v per call, want 0", a)
	}
	// The streaming Energy rides the same slab workspaces, on and off the
	// reference set.
	for _, psi := range [][]complex128{phi, wavefunc.Random(g, nb, 3)} {
		op.Energy(psi, nb)
		if a := testing.AllocsPerRun(5, func() { op.Energy(psi, nb) }); a > 0 && !raceEnabled {
			t.Errorf("steady-state Energy allocates %v per call, want 0", a)
		}
	}
}

func BenchmarkFockApplySingleBand(b *testing.B) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), 4)
	nb := 16
	phi := wavefunc.Random(g, nb, 1)
	op := NewOperator(g, xc.HSE06(), phi, nb)
	x := wavefunc.Random(g, 1, 2)
	v := make([]complex128, g.NG)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range v {
			v[k] = 0
		}
		op.Apply(v, x, 1)
	}
}
