package potential

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
	"ptdft/internal/parallel"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
)

// restrictToWave is the last stage of the reference chain: forward
// transform of the dense real field, every wave-box Miller index copied
// from the dense box, normalized inverse on the wave box, real part kept.
// It computes its own index map (not grid.WaveToDense).
func restrictToWave(g *grid.Grid, dense []float64) []float64 {
	src := make([]complex128, g.NDTot)
	for i, v := range dense {
		src[i] = complex(v, 0)
	}
	g.DenseForward(src, src)
	toDense := func(k, n, nd int) int {
		if k > n/2 {
			return k - n + nd
		}
		return k
	}
	dst := make([]complex128, 0, g.NTot)
	for ix := 0; ix < g.N[0]; ix++ {
		dx := toDense(ix, g.N[0], g.ND[0])
		for iy := 0; iy < g.N[1]; iy++ {
			dy := toDense(iy, g.N[1], g.ND[1])
			for iz := 0; iz < g.N[2]; iz++ {
				dz := toDense(iz, g.N[2], g.ND[2])
				dst = append(dst, src[(dx*g.ND[1]+dy)*g.ND[2]+dz]*complex(float64(g.NTot), 0))
			}
		}
	}
	g.Plan.ApplySerialWS(dst, dst, true, g.Plan.NewWorkspace())
	out := make([]float64, g.NTot)
	for i, v := range dst {
		out[i] = real(v)
	}
	return out
}

// referenceVeff is the three-transform chain AssembleVeff replaced:
// Hartree there and back, XC, sum on the dense grid, restrict.
func referenceVeff(g *grid.Grid, rho, vloc []float64, exScale float64) ([]float64, Energies) {
	veff, en := SCFPotential(g, rho, vloc, exScale)
	return restrictToWave(g, veff), en
}

func TestRestrictToWaveConstant(t *testing.T) {
	g := si8(t, 3)
	dense := make([]float64, g.NDTot)
	for i := range dense {
		dense[i] = 3.25
	}
	for i, v := range restrictToWave(g, dense) {
		if math.Abs(v-3.25) > 1e-9 {
			t.Fatalf("restricted constant differs at %d: %g", i, v)
		}
	}
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Max(1, math.Abs(b)) }

// The one-transform assembly against the dense-grid reference, on an odd
// wave box (9^3), a mixed one (18x9x9) and an even one (12^3, whose
// Nyquist planes the Miller-index copy and the Hermitian split must treat
// as the reference does), with and without the hybrid's exchange
// attenuation.
func TestAssembleVeffMatchesReference(t *testing.T) {
	pots := map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
	for _, tc := range []struct {
		cells [3]int
		ecut  float64
	}{{[3]int{1, 1, 1}, 3}, {[3]int{2, 1, 1}, 3}, {[3]int{1, 1, 1}, 6}} {
		g := grid.MustNew(lattice.MustSiliconSupercell(tc.cells[0], tc.cells[1], tc.cells[2]), tc.ecut)
		nb := g.Cell.NumBands()
		rho := Density(g, wavefunc.Random(g, nb, 9), nb, 2)
		loc := NewLocal(g, BuildVloc(g, pots))
		for _, exScale := range []float64{1, 0.75} {
			want, wantEn := referenceVeff(g, rho, loc.Dense, exScale)
			got := make([]float64, g.NTot)
			en := AssembleVeff(g, got, rho, loc, exScale)
			var diff, top float64
			for i := range want {
				diff = math.Max(diff, math.Abs(got[i]-want[i]))
				top = math.Max(top, math.Abs(want[i]))
			}
			if diff > 1e-12*top {
				t.Errorf("N %v exScale %g: max |veff - reference| = %g (max |veff| %g)", g.N, exScale, diff, top)
			}
			for _, e := range []struct {
				name      string
				got, want float64
			}{{"E_H", en.Hartree, wantEn.Hartree}, {"E_xc", en.XC, wantEn.XC}, {"E_loc", en.Local, wantEn.Local}} {
				if relDiff(e.got, e.want) > 1e-12 {
					t.Errorf("N %v exScale %g: %s = %.15g, reference %.15g", g.N, exScale, e.name, e.got, e.want)
				}
			}
		}
	}
}

// Two random real fields packed into one complex field and transformed
// together must split into the two separate spectra, on a box whose every
// dimension is even (self-conjugate Nyquist planes).
func TestSplitPairEvenBox(t *testing.T) {
	g := si8(t, 6) // dense box 24^3
	rng := rand.New(rand.NewSource(3))
	z := lanes.New(g.NDTot)
	f := make([]complex128, g.NDTot)
	h := make([]complex128, g.NDTot)
	for i := range f {
		z.Re[i], z.Im[i] = rng.NormFloat64(), rng.NormFloat64()
		f[i], h[i] = complex(z.Re[i], 0), complex(z.Im[i], 0)
	}
	ws := g.PlanD.NewWorkspace()
	g.PlanD.RawSlabWS(z, z, false, ws)
	g.PlanD.RawSerialWS(f, f, false, ws)
	g.PlanD.RawSerialWS(h, h, false, ws)
	for k, m := range g.MinusGDense {
		f2, h2 := splitPair(z, int32(k), m)
		if d := math.Max(cmplx.Abs(f2/2-f[k]), cmplx.Abs(h2/2-h[k])); d > 1e-10 {
			t.Fatalf("point %d (partner %d): split off by %g", k, m, d)
		}
		if int(m) == k && (imag(f2) != 0 || imag(h2) != 0) {
			t.Fatalf("self-conjugate point %d: coefficients %v, %v not real", k, f2, h2)
		}
	}
}

// A density or a destination of the wrong length must fail, not be
// zero-padded into a wrong potential.
func TestAssembleVeffSizeMismatchPanics(t *testing.T) {
	g := si8(t, 3)
	loc := NewLocal(g, make([]float64, g.NDTot))
	for name, f := range map[string]func(){
		"short rho":      func() { AssembleVeff(g, make([]float64, g.NTot), make([]float64, g.NDTot-1), loc, 1) },
		"short veffWave": func() { AssembleVeff(g, make([]float64, g.NTot-1), make([]float64, g.NDTot), loc, 1) },
		"short Hartree":  func() { Hartree(g, make([]float64, g.NDTot-1)) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", name)
				} else if s, ok := r.(string); !ok || len(s) < 20 || s[len(s)-20:] != "buffer size mismatch" {
					t.Errorf("%s: panic %v, want a buffer size mismatch", name, r)
				}
			}()
			f()
		}()
	}
}

// The assembly promises the same bits at any worker count: fixed-size
// blocks folded in block order, serial transforms, an index-ordered G-space
// sum.
func TestAssembleVeffBitIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g := grid.MustNew(lattice.MustSiliconSupercell(2, 1, 1), 3)
	nb := g.Cell.NumBands()
	rho := Density(g, wavefunc.Random(g, nb, 4), nb, 2)
	loc := NewLocal(g, BuildVloc(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()}))
	veff0 := make([]float64, g.NTot)
	en0 := AssembleVeff(g, veff0, rho, loc, 0.75)
	for _, w := range []int{1, 2, 4} {
		parallel.SetMaxWorkers(w)
		for rep := 0; rep < 3; rep++ {
			veff := make([]float64, g.NTot)
			if en := AssembleVeff(g, veff, rho, loc, 0.75); en != en0 || !sameBits(veff, veff0) {
				t.Fatalf("workers %d repeat %d: energies %v, one-worker %v (veffWave same bits: %v)", w, rep, en, en0, sameBits(veff, veff0))
			}
		}
	}
}
