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

// The fused contraction must equal the spelled-out pair product, Poisson
// solve, and accumulation onto a nonzero start, built from the naive DFT:
// one lane the one-sided way, and two lanes that share their reference band
// the two-sided way.
func TestContractSlabMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		phi, src, src2 := randomVec(rng, n), randomVec(rng, n), randomVec(rng, n)
		start := [3][]complex128{randomVec(rng, n), randomVec(rng, n), randomVec(rng, n)}
		kernel := randKernel(rng, n)
		scale := -0.3125
		solve := func(a, b []complex128) []complex128 {
			pair := make([]complex128, n)
			for k := range pair {
				pair[k] = cmplx.Conj(a[k]) * b[k]
			}
			return manualPoisson(pair, kernel, dims)
		}
		var want [3][]complex128
		for i := range want {
			want[i] = append([]complex128(nil), start[i]...)
		}
		for k, v := range solve(phi, src) {
			want[0][k] += complex(scale, 0) * phi[k] * v
		}
		v1, v2 := solve(phi, src), solve(phi, src2)
		for k := range v1 {
			want[1][k] += complex(scale, 0) * (src[k]*cmplx.Conj(v1[k]) + src2[k]*cmplx.Conj(v2[k]))
			want[2][k] += complex(scale, 0) * phi[k] * v2[k]
		}

		buf, ws := lanes.New(lw*n), []*Workspace3{p.NewWorkspace()}
		one := PairLanes{N: 1}
		one.A[0], one.B[0], one.AccB[0] = packed(phi), packed(src), packed(start[0])
		p.ContractPairsWS(&one, buf, kernel, scale, ws)
		if d := maxDiff(want[0], one.AccB[0]); d > tol3(n) {
			t.Errorf("grid %v: one-sided contraction differs from the manual sequence by %g", dims, d)
		}
		two := PairLanes{N: 2}
		two.A[0], two.A[1] = packed(phi), packed(phi)
		two.B[0], two.B[1] = packed(src), packed(src2)
		accI, accJ := packed(start[1]), packed(start[2])
		two.AccA[0], two.AccA[1] = accI, accI
		two.AccB[0], two.AccB[1] = lanes.New(n), accJ
		p.ContractPairsWS(&two, buf, kernel, scale, ws)
		if d := math.Max(maxDiff(want[1], accI), maxDiff(want[2], accJ)); d > tol3(n) {
			t.Errorf("grid %v: two-sided contraction differs from the manual sequence by %g", dims, d)
		}
	}
}

// laneSpec is one lane of a pair-lane case: operand and accumulator
// indices, accA < 0 for a lane without the mirrored side.
type laneSpec struct{ a, b, accA, accB int }

// pairCase draws np lanes over a few operand bands and accumulators in one
// of the shapes the exchange runs: "uniform A" (one reference band against
// partners, its mirrored sum in one accumulator), "uniform B" (the reference
// bands against one band, one accumulator: fock.Operator.Apply off its
// reference set), "varying" (a packed stream: both sides and both
// accumulators per lane), "diag" (a band with itself, one side). Accumulators come back with random starts.
func pairCase(rng *rand.Rand, n, np int, shape string) (specs []laneSpec, bands, accs []lanes.Slab) {
	for i := 0; i < 4; i++ {
		bands = append(bands, randLaneSlab(rng, n))
		accs = append(accs, randLaneSlab(rng, n))
	}
	for l := 0; l < np; l++ {
		a, b := rng.Intn(4), rng.Intn(4)
		switch shape {
		case "uniform A":
			specs = append(specs, laneSpec{0, b, 0, b})
		case "uniform B":
			specs = append(specs, laneSpec{a, 0, -1, 0})
		case "varying":
			specs = append(specs, laneSpec{a, b, a, b})
		case "diag":
			specs = append(specs, laneSpec{a, a, -1, a})
		}
	}
	return specs, bands, accs
}

// buildLanes binds specs to operand and accumulator slabs.
func buildLanes(specs []laneSpec, bands, accs []lanes.Slab) *PairLanes {
	pl := &PairLanes{N: len(specs)}
	for l, sp := range specs {
		pl.A[l], pl.B[l], pl.AccB[l] = bands[sp.a], bands[sp.b], accs[sp.accB]
		if sp.accA >= 0 {
			pl.AccA[l] = accs[sp.accA]
		}
	}
	return pl
}

// contractOracle is ContractPairsWS composed on the test side: lane after
// lane, the pair product, PoissonSlabWS and the accumulation - the
// expressions the kernel evaluates, every product float64(...) so that no
// build fuses it, so the comparison is ==.
func contractOracle(p *Plan3, pl *PairLanes, kernel []float64, scale float64) {
	n := p.Size()
	v, ws := lanes.New(n), p.NewWorkspace()
	for l := 0; l < pl.N; l++ {
		a, b, c, d := pl.A[l], pl.B[l], pl.AccB[l], pl.AccA[l]
		for g := 0; g < n; g++ {
			v.Re[g] = float64(a.Re[g]*b.Re[g]) + float64(a.Im[g]*b.Im[g])
			v.Im[g] = float64(a.Re[g]*b.Im[g]) - float64(a.Im[g]*b.Re[g])
		}
		p.PoissonSlabWS(v, kernel, ws)
		for g := 0; g < n; g++ {
			vr, vi := v.Re[g], v.Im[g]
			c.Re[g] += float64(scale * (float64(a.Re[g]*vr) - float64(a.Im[g]*vi)))
			c.Im[g] += float64(scale * (float64(a.Re[g]*vi) + float64(a.Im[g]*vr)))
			if d.Len() != 0 {
				d.Re[g] += float64(scale * (float64(b.Re[g]*vr) + float64(b.Im[g]*vi)))
				d.Im[g] += float64(scale * (float64(b.Im[g]*vr) - float64(b.Re[g]*vi)))
			}
		}
	}
}

// checkPairsExact runs one pair-lane case through the kernel on nw workers
// and through the oracle, and requires the same bits in every accumulator.
func checkPairsExact(t *testing.T, p *Plan3, specs []laneSpec, bands, accs []lanes.Slab, kernel []float64, nw int, what string) {
	t.Helper()
	n := p.Size()
	want := make([]lanes.Slab, len(accs))
	for i := range accs {
		want[i] = cloneSlab(accs[i])
	}
	contractOracle(p, buildLanes(specs, bands, want), kernel, -0.3125)
	wss := make([]*Workspace3, nw)
	for w := range wss {
		wss[w] = p.NewWorkspace()
	}
	buf := randLaneSlab(rand.New(rand.NewSource(int64(n))), lw*n) // stale lanes must not leak
	p.ContractPairsWS(buildLanes(specs, bands, accs), buf, kernel, -0.3125, wss)
	for i := range accs {
		sameBits(t, fmt.Sprintf("%s accumulator %d", what, i), want[i], accs[i])
	}
}

// TestContractPairsExact is the bit oracle of the pair-lane contraction: on
// every benchmark box and two odd ones, for 1 to 8 pairs in every lane
// shape, on one and three workers and on both paths, the kernel equals the
// test-side composition with ==.
func TestContractPairsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dims := range [][3]int{{9, 9, 9}, {12, 12, 12}, {18, 9, 9}, {7, 7, 7}, {14, 7, 7}, {5, 7, 3}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		kernel := randKernel(rng, p.Size())
		forEachVec(func(vec bool) {
			for np := 1; np <= lw; np++ {
				for _, shape := range []string{"uniform A", "uniform B", "varying", "diag"} {
					specs, bands, accs := pairCase(rng, p.Size(), np, shape)
					checkPairsExact(t, p, specs, bands, accs, kernel, 1+np%3, fmt.Sprintf("%v %d pairs %s kernels=%v", dims, np, shape, vec))
				}
			}
		})
	}
}

// TestSlabTransformAllocs: with a caller-held workspace the slab transforms
// and the pair-lane contraction allocate nothing, on every radix, and the []complex128 adapter allocates
// nothing after the call that made the workspace's grid slab.
func TestSlabTransformAllocs(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {14, 7, 15}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		s := lanes.New(n)
		c := make([]complex128, n)
		kernel := make([]float64, n)
		ws := p.NewWorkspace()
		pl, pairs, one := PairLanes{N: lw}, lanes.New(lw*n), []*Workspace3{ws}
		for l := range pl.A {
			pl.A[l], pl.B[l], pl.AccA[l], pl.AccB[l] = s, s, lanes.New(n), lanes.New(n)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			p.RawSlabWS(s, s, false, ws)
			p.PoissonSlabWS(s, kernel, ws)
			p.ContractPairsWS(&pl, pairs, kernel, 1, one)
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

// BenchmarkContractPairSlab times one pair-lane contraction call, the
// exchange's unit of work, at 1, 4 and 8 pairs on the wave boxes the
// benchmark rows run: 9^3 (Si8 at Ecut 3), 12^3 (Si8 at Ecut 6), 18x9x9
// (Si16 at Ecut 3), and 7^3 and 14x7x7 (Si8 and Si16 at Ecut 2), whose axes
// take radix-7 stages. It covers both accumulation branches: two-sided, one
// reference band against partners with both sides accumulated, as
// FoldPairs queues them; and one-sided, reference bands against one band
// into one accumulator with AccA empty, as fock.Operator.Apply queues them
// off its reference set.
func BenchmarkContractPairSlab(b *testing.B) {
	for _, d := range [][3]int{{9, 9, 9}, {12, 12, 12}, {18, 9, 9}, {7, 7, 7}, {14, 7, 7}} {
		p := MustPlan3(d[0], d[1], d[2])
		n := p.Size()
		rng := rand.New(rand.NewSource(1))
		var two, one PairLanes
		phiI, accI := randLaneSlab(rng, n), lanes.New(n)
		psi, acc := randLaneSlab(rng, n), lanes.New(n)
		for l := 0; l < lw; l++ {
			two.A[l], two.B[l], two.AccA[l], two.AccB[l] = phiI, randLaneSlab(rng, n), accI, lanes.New(n)
			one.A[l], one.B[l], one.AccB[l] = randLaneSlab(rng, n), psi, acc
		}
		buf, kernel, wss := lanes.New(lw*n), randKernel(rng, n), []*Workspace3{p.NewWorkspace()}
		for _, side := range []struct {
			name string
			pl   *PairLanes
		}{{"two-sided", &two}, {"one-sided", &one}} {
			for _, np := range []int{1, 4, 8} {
				b.Run(fmt.Sprintf("%dx%dx%d/%s/pairs=%d", d[0], d[1], d[2], side.name, np), func(b *testing.B) {
					b.ReportAllocs()
					side.pl.N = np
					for i := 0; i < b.N; i++ {
						p.ContractPairsWS(side.pl, buf, kernel, -0.25, wss)
					}
				})
			}
		}
	}
}

// prunedCase draws a sorted, duplicate-free subset of the plan's z-rows,
// the x-planes they lie in, and a box that is nonzero only inside those
// rows - the shape AddNorm2PrunedSlabWS declares as its precondition.
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
// the fuzz target: the pruned inverse's fused accumulation ≡ the full
// RawSlabWS inverse followed by the Go |.|^2 loop, bit for bit, into an
// accumulator that already holds values.
func checkPrunedVsRaw(t *testing.T, p *Plan3, box []complex128, rows, planes []int) {
	t.Helper()
	n := p.Size()
	ws := p.NewWorkspace()
	ref := lanes.New(n)
	lanes.Pack(ref, box)
	p.RawSlabWS(ref, ref, true, ws)
	want, got := make([]float64, n), make([]float64, n)
	for i := range want {
		got[i] = float64(i%5) / 4
		want[i] = got[i] + (float64(ref.Re[i]*ref.Re[i]) + float64(ref.Im[i]*ref.Im[i]))
	}
	buf := lanes.New(n)
	lanes.Pack(buf, box)
	p.AddNorm2PrunedSlabWS(got, buf, rows, planes, ws)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("grid %dx%dx%d, %d rows in %d planes: point %d: pruned accumulate %v, full inverse + |.|^2 %v",
				p.nx, p.ny, p.nz, len(rows), len(planes), i, got[i], want[i])
			return
		}
	}
}

func TestInversePrunedSlabMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	grids := [][3]int{
		{36, 18, 18}, // Si16 / Ecut 3 dense box
		{24, 24, 24}, // Si8 / Ecut 6
		{18, 18, 18}, // Si8 / Ecut 3
		{14, 14, 14}, // Si8 / Ecut 2: 196 x pencils end in a partial group
		{5, 7, 3},    // 35 rows, 3- and 21-pencil passes: no multiple of Width
		{4, 35, 6},   // a radix-5-and-7 y axis
	}
	for _, dims := range grids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		// Sparse, sphere-like (about a sixth of the rows), dense, and the
		// two degenerate lists.
		for _, keep := range []float64{0.05, 0.15, 0.6, 1} {
			box, rows, planes := prunedCase(rng, p, keep)
			forEachVec(func(bool) { checkPrunedVsRaw(t, p, box, rows, planes) })
		}
		checkPrunedVsRaw(t, p, make([]complex128, p.Size()), []int{}, []int{})
	}
}
