package pseudo

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
)

func TestLocalFormFactorLimits(t *testing.T) {
	p := SiliconAH()
	// Large q: everything decays to zero.
	if v := p.LocalFormFactor(1e4); math.Abs(v) > 1e-10 {
		t.Errorf("form factor at large q = %g, want ~0", v)
	}
	// Small but nonzero q: dominated by the attractive Coulomb term.
	if v := p.LocalFormFactor(0.01); v >= 0 {
		t.Errorf("form factor at small q = %g, want negative (Coulombic)", v)
	}
	// Relative continuity over a range (the Coulomb tail makes absolute
	// steps large near q = 0).
	prev := p.LocalFormFactor(0.1)
	for q2 := 0.101; q2 < 50; q2 += 0.001 {
		v := p.LocalFormFactor(q2)
		if math.Abs(v-prev) > 0.05*(math.Abs(prev)+1) {
			t.Fatalf("form factor jump at q2=%g: %g -> %g", q2, prev, v)
		}
		prev = v
	}
}

func TestNonlocalProjectorCount(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 4)
	nl := BuildNonlocal(g, map[int]*Potential{0: SiliconAH()})
	if len(nl.projs) != 8 {
		t.Errorf("projectors = %d, want 8 (one per Si atom)", len(nl.projs))
	}
}

func TestNonlocalHermitian(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 4)
	nl := BuildNonlocal(g, map[int]*Potential{0: SiliconAH()})
	rng := rand.New(rand.NewSource(1))
	a := make([]complex128, g.NTot)
	b := make([]complex128, g.NTot)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	va := make([]complex128, g.NTot)
	vb := make([]complex128, g.NTot)
	applyC(nl, va, a)
	applyC(nl, vb, b)
	// <b|V a> == conj(<a|V b>) with the real-space inner product.
	var ba, ab complex128
	for i := range a {
		ba += cmplx.Conj(b[i]) * va[i]
		ab += cmplx.Conj(a[i]) * vb[i]
	}
	if cmplx.Abs(ba-cmplx.Conj(ab)) > 1e-8*(1+cmplx.Abs(ba)) {
		t.Errorf("nonlocal operator not Hermitian: %v vs conj %v", ba, cmplx.Conj(ab))
	}
}

func TestNonlocalEnergyMatchesApply(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 4)
	nl := BuildNonlocal(g, map[int]*Potential{0: SiliconAH()})
	rng := rand.New(rand.NewSource(2))
	a := make([]complex128, g.NTot)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	va := make([]complex128, g.NTot)
	applyC(nl, va, a)
	var quad complex128
	for i := range a {
		quad += cmplx.Conj(a[i]) * va[i]
	}
	quad *= complex(g.DVWave(), 0)
	e := energyC(nl, a)
	if math.Abs(real(quad)-e) > 1e-8*(1+math.Abs(e)) {
		t.Errorf("energy %g != quadratic form %g", e, real(quad))
	}
	if math.Abs(imag(quad)) > 1e-8 {
		t.Errorf("quadratic form has imaginary part %g", imag(quad))
	}
}

func TestNonlocalPositiveForPositiveD(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 4)
	nl := BuildNonlocal(g, map[int]*Potential{0: SiliconAH()})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		a := make([]complex128, g.NTot)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if e := energyC(nl, a); e < 0 {
			t.Fatalf("trial %d: energy %g < 0 for D > 0", trial, e)
		}
	}
}

func TestBuildSparseNormalization(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 6)
	pos := g.WavePointPositions()
	sp := buildSparse(pos, g.Cell.L, [3]float64{1, 2, 3}, ProjectorSpec{D: 1, Rc: 1.1, Rmax: 3.5}, g.DVWave())
	var norm float64
	for _, v := range sp.val {
		norm += v * v
	}
	norm *= g.DVWave()
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("projector norm = %g, want 1", norm)
	}
	if len(sp.idx) == 0 || len(sp.idx) == g.NTot {
		t.Errorf("projector support %d not sparse in %d points", len(sp.idx), g.NTot)
	}
}

// applyC and energyC run the split re/im kernels on interleaved boxes.
func applyC(nl *Nonlocal, dst, src []complex128) {
	d, s := lanes.New(len(dst)), lanes.New(len(src))
	lanes.Pack(d, dst)
	lanes.Pack(s, src)
	nl.Apply(d, s)
	lanes.Unpack(dst, d)
}

func energyC(nl *Nonlocal, src []complex128) float64 {
	s := lanes.New(len(src))
	lanes.Pack(s, src)
	return nl.Energy(s)
}
