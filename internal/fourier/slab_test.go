package fourier

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
)

// slabGrids crosses the lane-remainder space: pencil counts that are
// multiples of lanes.Width, off-by-one remainders, tiny grids smaller than
// one lane group, and axes that stack radix-5 and radix-7 stages (49, 35).
var slabGrids = [][3]int{
	{8, 8, 8},
	{8, 9, 10},
	{5, 7, 3},
	{4, 6, 12},
	{3, 3, 3},
	{1, 16, 5},
	{4, 49, 3},
	{35, 2, 9},
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

// TestRawSlabMatchesSerial pins what the []complex128 adapter is: a change
// of layout around RawSlabWS and nothing else, so on every shape, in both
// directions, out of place and in place, RawSerialWS returns RawSlabWS's
// bits (TestPlan3MatchesNaive holds those to the oracle).
func TestRawSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		src := randomVec(rng, n)
		for _, inverse := range []bool{false, true} {
			ws := p.NewWorkspace()
			want := lanes.New(n)
			p.RawSlabWS(want, packed(src), inverse, ws)

			got := make([]complex128, n)
			p.RawSerialWS(got, src, inverse, ws)
			if d := maxDiff(got, want); d != 0 {
				t.Errorf("grid %v inverse=%v: adapter differs from the slab transform by %g", dims, inverse, d)
			}
			copy(got, src)
			p.RawSerialWS(got, got, inverse, ws)
			if d := maxDiff(got, want); d != 0 {
				t.Errorf("grid %v inverse=%v: in-place adapter differs from the slab transform by %g", dims, inverse, d)
			}
		}
	}
}

// RawSerialWS is the unnormalized core: its inverse must equal
// ApplySerialWS's scaled back up by N.
func TestRawSerialWSUnnormalized(t *testing.T) {
	p := MustPlan3(6, 5, 4)
	n := p.Size()
	src := randomVec(rand.New(rand.NewSource(2)), n)
	norm := make([]complex128, n)
	raw := make([]complex128, n)
	ws := p.NewWorkspace()
	p.ApplySerialWS(norm, src, true, ws)
	p.RawSerialWS(raw, src, true, ws)
	for i := range norm {
		if d := cmplx.Abs(raw[i] - norm[i]*complex(float64(n), 0)); d > 1e-12 {
			t.Fatalf("raw inverse differs at %d by %g", i, d)
		}
	}
}

// manualPoisson is the unfused oracle of the Poisson round trip: naive
// forward, pointwise kernel multiply, naive (normalized) inverse.
func manualPoisson(src []complex128, kernel []float64, dims [3]int) []complex128 {
	f := naiveDFT3(src, dims[0], dims[1], dims[2], false)
	for i := range f {
		f[i] *= complex(kernel[i], 0)
	}
	return naiveDFT3(f, dims[0], dims[1], dims[2], true)
}

func randKernel(rng *rand.Rand, n int) []float64 {
	kernel := make([]float64, n)
	for i := range kernel {
		kernel[i] = rng.Float64()
	}
	return kernel
}

// The fused Poisson round trip must equal the unfused forward + pointwise
// kernel multiply + normalized inverse sequence of the oracle.
func TestPoissonSlabMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		src := randomVec(rng, n)
		kernel := randKernel(rng, n)
		s := packed(src)
		p.PoissonSlabWS(s, kernel, p.NewWorkspace())
		if d := maxDiff(manualPoisson(src, kernel, dims), s); d > tol3(n) {
			t.Errorf("grid %v: fused Poisson differs from the manual sequence by %g", dims, d)
		}
	}
}

// The fully fused contraction must equal the spelled-out pair product,
// Poisson solve, and accumulation onto a nonzero start.
func TestContractSlabMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		phi := randomVec(rng, n)
		src := randomVec(rng, n)
		want := randomVec(rng, n)
		kernel := randKernel(rng, n)
		scale := -0.3125

		sdst := packed(want)
		pair := make([]complex128, n)
		for k := range pair {
			pair[k] = cmplx.Conj(phi[k]) * src[k]
		}
		pair = manualPoisson(pair, kernel, dims)
		for k := range want {
			want[k] += complex(scale, 0) * phi[k] * pair[k]
		}

		p.ContractSlabWS(sdst, packed(phi), packed(src), lanes.New(n), kernel, scale, p.NewWorkspace())
		if d := maxDiff(want, sdst); d > tol3(n) {
			t.Errorf("grid %v: fused contraction differs from the manual sequence by %g", dims, d)
		}
	}
}

// TestSlabTransformAllocs: with a caller-held workspace the slab transforms
// allocate nothing, on every radix, and the []complex128 adapter allocates
// nothing after the call that made the workspace's grid slab.
func TestSlabTransformAllocs(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {14, 7, 15}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		s := lanes.New(n)
		c := make([]complex128, n)
		kernel := make([]float64, n)
		ws := p.NewWorkspace()
		if allocs := testing.AllocsPerRun(5, func() {
			p.RawSlabWS(s, s, false, ws)
			p.PoissonSlabWS(s, kernel, ws)
		}); allocs != 0 {
			t.Errorf("grid %v: slab transforms allocated %v per run", dims, allocs)
		}
		p.RawSerialWS(c, c, false, ws) // the first adapter call on ws
		if allocs := testing.AllocsPerRun(5, func() {
			p.RawSerialWS(c, c, false, ws)
			p.ApplySerialWS(c, c, true, ws)
		}); allocs != 0 {
			t.Errorf("grid %v: the []complex128 adapter allocated %v per run on a used workspace", dims, allocs)
		}
	}
}

// BenchmarkContractPairSlab times one two-sided pair contraction, the
// exchange's unit of work, on the wave boxes the benchmark rows run: 9^3
// (Si8 at Ecut 3), 12^3 (Si8 at Ecut 6), 18x9x9 (Si16 at Ecut 3), and 7^3
// and 14x7x7 (Si8 and Si16 at Ecut 2), whose axes take radix-7 stages.
func BenchmarkContractPairSlab(b *testing.B) {
	for _, d := range [][3]int{{9, 9, 9}, {12, 12, 12}, {18, 9, 9}, {7, 7, 7}, {14, 7, 7}} {
		p := MustPlan3(d[0], d[1], d[2])
		n := p.Size()
		rng := rand.New(rand.NewSource(1))
		accI, accJ := lanes.New(n), lanes.New(n)
		phiI, phiJ, buf := packed(randomVec(rng, n)), packed(randomVec(rng, n)), lanes.New(n)
		kernel := randKernel(rng, n)
		ws := p.NewWorkspace()
		b.Run(fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ContractPairSlabWS(accI, accJ, phiI, phiJ, buf, kernel, -0.25, false, ws)
			}
		})
	}
}

// prunedCase draws a sorted, duplicate-free subset of the plan's z-rows,
// the x-planes they lie in, and a box that is nonzero only inside those
// rows - the shape InversePrunedSlabWS declares as its precondition.
func prunedCase(rng *rand.Rand, p *Plan3, keep float64) (box []complex128, rows, planes []int) {
	nx, ny, nz := p.nx, p.ny, p.nz
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
	nx, ny, nz := p.nx, p.ny, p.nz
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
		{4, 35, 6},   // a radix-5-and-7 y axis
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
