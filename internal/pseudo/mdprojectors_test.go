package pseudo

import (
	"math"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/wavefunc"
)

// TestMDProjectorNormTranslationInvariant: the force-ready projectors are
// band-limited to the inversion-symmetric G-sphere, so their grid norm is
// exactly 1 wherever the atom sits - including sub-grid offsets, where
// point-sampled projectors show the egg-box ripple.
func TestMDProjectorNormTranslationInvariant(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 3)
	h := cell.L[0] / float64(g.N[0])
	for _, frac := range []float64{0, 0.25, 0.37, 0.5} {
		c := cell.Clone()
		if err := c.DisplaceAtom(0, [3]float64{frac * h, 0, 0}); err != nil {
			t.Fatal(err)
		}
		gg := grid.MustNew(c, 3)
		nl := BuildNonlocalMD(gg, map[int]*Potential{0: SiliconAH()})
		for k, p := range nl.projs {
			var norm float64
			for _, v := range p.val {
				norm += v * v
			}
			norm *= gg.DVWave()
			if math.Abs(norm-1) > 1e-10 {
				t.Errorf("offset %.2f h: projector %d grid norm %.12f, want exactly 1", frac, k, norm)
			}
		}
	}
}

// TestMDProjectorGradientMatchesFD: the stored gradient fields are the
// exact center-derivatives of the projection <beta|psi>.
func TestMDProjectorGradientMatchesFD(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 3)
	pots := map[int]*Potential{0: SiliconAH()}
	psi := wavefunc.Random(g, 1, 5)
	box := make([]complex128, g.NTot)
	g.ToRealSerial(box, psi[:g.NG])

	project := func(c *lattice.Cell) (re, im float64) {
		nl := BuildNonlocalMD(grid.MustNew(c, 3), pots)
		p := nl.projs[0]
		for j, ix := range p.idx {
			v := box[ix]
			re += p.val[j] * real(v)
			im += p.val[j] * imag(v)
		}
		return re * nl.dv, im * nl.dv
	}
	nl := BuildNonlocalMD(g, pots)
	p := nl.projs[0]
	const h = 1e-4
	for d := 0; d < 3; d++ {
		var gre, gim float64
		for j, ix := range p.idx {
			v := box[ix]
			gre += p.grad[d][j] * real(v)
			gim += p.grad[d][j] * imag(v)
		}
		gre *= nl.dv
		gim *= nl.dv
		plus := cell.Clone()
		var dp [3]float64
		dp[d] = h
		plus.DisplaceAtom(0, dp)
		minus := cell.Clone()
		dp[d] = -h
		minus.DisplaceAtom(0, dp)
		pre, pim := project(plus)
		mre, mim := project(minus)
		if diff := math.Abs((pre-mre)/(2*h) - gre); diff > 1e-6 {
			t.Errorf("component %d: Re gradient %g vs FD %g", d, gre, (pre-mre)/(2*h))
		}
		if diff := math.Abs((pim-mim)/(2*h) - gim); diff > 1e-6 {
			t.Errorf("component %d: Im gradient %g vs FD %g", d, gim, (pim-mim)/(2*h))
		}
	}
}

// TestForcesRequiresGradients: the sparse builder carries no gradients and
// must be rejected loudly by the force assembly, never return zeros.
func TestForcesRequiresGradients(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 3)
	pots := map[int]*Potential{0: SiliconAH()}
	psi := wavefunc.Random(g, 1, 6)
	dst := make([][3]float64, cell.NumAtoms())
	if err := BuildNonlocal(g, pots).Forces(dst, g, psi, 1, 2); err == nil {
		t.Error("point-sampled projectors accepted by Forces")
	}
	if !BuildNonlocalMD(g, pots).HasGradients() {
		t.Error("MD projectors report no gradients")
	}
}

// TestMDProjectorApplyHermitian: the dense-support projectors feed the
// same Apply path as the sparse ones; the operator must stay Hermitian
// and positive for a positive KB energy.
func TestMDProjectorApplyHermitian(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g := grid.MustNew(cell, 3)
	nl := BuildNonlocalMD(g, map[int]*Potential{0: SiliconAH()})
	psi := wavefunc.Random(g, 2, 7)
	boxA := make([]complex128, g.NTot)
	boxB := make([]complex128, g.NTot)
	g.ToRealSerial(boxA, psi[:g.NG])
	g.ToRealSerial(boxB, psi[g.NG:])
	outA := make([]complex128, g.NTot)
	outB := make([]complex128, g.NTot)
	applyC(nl, outA, boxA)
	applyC(nl, outB, boxB)
	dv := complex(g.DVWave(), 0)
	var ab, ba complex128
	for i := range outA {
		ab += complexConj(boxA[i]) * outB[i]
		ba += complexConj(boxB[i]) * outA[i]
	}
	ab *= dv
	ba *= dv
	if d := math.Hypot(real(ab)-real(ba), imag(ab)+imag(ba)); d > 1e-10 {
		t.Errorf("<a|V|b> = %v vs conj(<b|V|a>) = %v", ab, ba)
	}
	if e := energyC(nl, boxA); e < 0 {
		t.Errorf("positive-D channel produced negative energy %g", e)
	}
}

func complexConj(c complex128) complex128 { return complex(real(c), -imag(c)) }
