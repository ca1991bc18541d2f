package fourier

import (
	"math"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
)

// slabGrids crosses the lane-remainder space: pencil counts that are
// multiples of lanes.Width, off-by-one remainders, tiny grids smaller than
// one lane group, and a Bluestein axis (67 is prime > maxDirectRadix).
var slabGrids = [][3]int{
	{8, 8, 8},
	{8, 9, 10},
	{5, 7, 3},
	{4, 6, 12},
	{3, 3, 3},
	{1, 16, 5},
	{4, 67, 3},
	{13, 2, 9},
}

func randGridRng(rng *rand.Rand, n int) []complex128 {
	c := make([]complex128, n)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

func maxDiff(a []complex128, s lanes.Slab) float64 {
	var m float64
	for i, v := range a {
		if d := math.Abs(real(v) - s.Re[i]); d > m {
			m = d
		}
		if d := math.Abs(imag(v) - s.Im[i]); d > m {
			m = d
		}
	}
	return m
}

func TestRawSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		src := randGridRng(rng, n)
		for _, inverse := range []bool{false, true} {
			ref := make([]complex128, n)
			ws := p.NewWorkspace()
			p.RawSerialWS(ref, src, inverse, ws)

			ss := lanes.New(n)
			lanes.Pack(ss, src)
			ds := lanes.New(n)
			p.RawSlabWS(ds, ss, inverse, ws)
			if d := maxDiff(ref, ds); d > 1e-12 {
				t.Errorf("grid %v inverse=%v: slab vs serial max diff %g", dims, inverse, d)
			}
			// In-place (dst == src) must match too.
			p.RawSlabWS(ss, ss, inverse, ws)
			if d := maxDiff(ref, ss); d > 1e-12 {
				t.Errorf("grid %v inverse=%v: in-place slab max diff %g", dims, inverse, d)
			}
		}
	}
}

func TestPoissonSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		src := randGridRng(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		ws := p.NewWorkspace()

		ref := append([]complex128(nil), src...)
		p.PoissonSerialWS(ref, kernel, ws)

		s := lanes.New(n)
		lanes.Pack(s, src)
		p.PoissonSlabWS(s, kernel, ws)
		if d := maxDiff(ref, s); d > 1e-12 {
			t.Errorf("grid %v: Poisson slab vs serial max diff %g", dims, d)
		}
	}
}

func TestContractSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		phi := randGridRng(rng, n)
		src := randGridRng(rng, n)
		dst0 := randGridRng(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		scale := -0.3125
		ws := p.NewWorkspace()

		ref := append([]complex128(nil), dst0...)
		buf := make([]complex128, n)
		p.ContractSerialWS(ref, phi, src, buf, kernel, complex(scale, 0), ws)

		sphi, ssrc, sdst, sbuf := lanes.New(n), lanes.New(n), lanes.New(n), lanes.New(n)
		lanes.Pack(sphi, phi)
		lanes.Pack(ssrc, src)
		lanes.Pack(sdst, dst0)
		p.ContractSlabWS(sdst, sphi, ssrc, sbuf, kernel, scale, ws)
		if d := maxDiff(ref, sdst); d > 1e-12 {
			t.Errorf("grid %v: Contract slab vs serial max diff %g", dims, d)
		}
	}
}

func TestSlabTransformAllocs(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {4, 67, 3}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		s := lanes.New(n)
		kernel := make([]float64, n)
		ws := p.NewWorkspace()
		p.PoissonSlabWS(s, kernel, ws) // warm
		allocs := testing.AllocsPerRun(5, func() {
			p.RawSlabWS(s, s, false, ws)
			p.PoissonSlabWS(s, kernel, ws)
		})
		if allocs != 0 {
			t.Errorf("grid %v: slab transforms allocated %v per run", dims, allocs)
		}
	}
}

func BenchmarkPoissonSlab(b *testing.B) {
	p := MustPlan3(36, 36, 36)
	n := p.Size()
	s := lanes.New(n)
	for i := 0; i < n; i++ {
		s.Re[i] = float64(i%17) * 0.1
	}
	kernel := make([]float64, n)
	for i := range kernel {
		kernel[i] = 1 / float64(i+1)
	}
	ws := p.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PoissonSlabWS(s, kernel, ws)
	}
}

func BenchmarkPoissonSerialRef(b *testing.B) {
	p := MustPlan3(36, 36, 36)
	n := p.Size()
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(float64(i%17)*0.1, 0)
	}
	kernel := make([]float64, n)
	for i := range kernel {
		kernel[i] = 1 / float64(i+1)
	}
	ws := p.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PoissonSerialWS(buf, kernel, ws)
	}
}

// prunedCase draws a sorted, duplicate-free subset of the plan's z-rows,
// the x-planes they lie in, and a box that is nonzero only inside those
// rows - the shape InversePrunedSlabWS declares as its precondition.
func prunedCase(rng *rand.Rand, p *Plan3, keep float64) (box []complex128, rows, planes []int) {
	nx, ny, nz := p.Dims()
	box = make([]complex128, p.Size())
	for r := 0; r < nx*ny; r++ {
		if rng.Float64() >= keep {
			continue
		}
		rows = append(rows, r)
		if ix := r / ny; len(planes) == 0 || planes[len(planes)-1] != ix {
			planes = append(planes, ix)
		}
		for k := 0; k < nz; k++ {
			if rng.Intn(3) > 0 { // a row may be partly filled, as a sphere's are
				box[r*nz+k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
	}
	return box, rows, planes
}

// checkPrunedVsRaw is the oracle comparison shared by the table test and
// the fuzz target: pruned synthesis ≡ the full RawSlabWS inverse.
func checkPrunedVsRaw(t *testing.T, p *Plan3, box []complex128, rows, planes []int, tol float64) {
	t.Helper()
	n := p.Size()
	ws := p.NewWorkspace()
	ref := lanes.New(n)
	lanes.Pack(ref, box)
	p.RawSlabWS(ref, ref, true, ws)
	got := lanes.New(n)
	lanes.Pack(got, box)
	p.InversePrunedSlabWS(got, rows, planes, ws)
	var d float64
	for i := 0; i < n; i++ {
		d = math.Max(d, math.Max(math.Abs(got.Re[i]-ref.Re[i]), math.Abs(got.Im[i]-ref.Im[i])))
	}
	nx, ny, nz := p.Dims()
	if d > tol {
		t.Errorf("grid %dx%dx%d, %d rows in %d planes: pruned vs full inverse max diff %g (tol %g)",
			nx, ny, nz, len(rows), len(planes), d, tol)
	}
}

func TestInversePrunedSlabMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	grids := [][3]int{
		{36, 18, 18}, // Si16 / Ecut 3 dense box
		{24, 24, 24}, // Si8 / Ecut 6
		{18, 18, 18}, // Si8 / Ecut 3
		{14, 14, 14}, // Si8 / Ecut 2
		{5, 7, 3},    // 35 rows, 3- and 21-pencil passes: no multiple of Width
		{4, 67, 6},   // Bluestein y axis
	}
	for _, dims := range grids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		// Sparse, sphere-like (about a sixth of the rows), dense, and the
		// two degenerate lists.
		for _, keep := range []float64{0.05, 0.15, 0.6, 1} {
			box, rows, planes := prunedCase(rng, p, keep)
			checkPrunedVsRaw(t, p, box, rows, planes, 1e-12)
		}
		checkPrunedVsRaw(t, p, make([]complex128, p.Size()), []int{}, []int{}, 0)
	}
}
