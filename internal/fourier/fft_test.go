package fourier

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(N^2) reference implementation.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			acc += x[j] * cmplx.Exp(complex(0, sign*2*math.Pi*float64(j*k)/float64(n)))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 18, 20, 24, 30, 32, 36, 45, 48, 60, 64, 90, 97, 101, 120, 128}
	for _, n := range sizes {
		p := MustPlan(n)
		x := randomVec(rng, n)
		got := make([]complex128, n)
		p.Forward(got, x)
		want := naiveDFT(x, false)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: forward max diff %g", n, d)
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 5, 8, 12, 21, 32, 60, 97, 120} {
		p := MustPlan(n)
		x := randomVec(rng, n)
		got := make([]complex128, n)
		p.Inverse(got, x)
		want := naiveDFT(x, true)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: inverse max diff %g", n, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 7, 30, 64, 97, 100, 210} {
		p := MustPlan(n)
		f := func(seed int64) bool {
			local := rand.New(rand.NewSource(seed))
			x := randomVec(local, n)
			fx := make([]complex128, n)
			back := make([]complex128, n)
			p.Forward(fx, x)
			p.Inverse(back, fx)
			return maxAbsDiff(back, x) < 1e-9*float64(n)
		}
		cfg := &quick.Config{MaxCount: 20, Rand: rng}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("n=%d: round trip property failed: %v", n, err)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 15, 60, 101} {
		p := MustPlan(n)
		x := randomVec(rng, n)
		fx := make([]complex128, n)
		p.Forward(fx, x)
		var st, sf float64
		for i := 0; i < n; i++ {
			st += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			sf += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		sf /= float64(n)
		if math.Abs(st-sf) > 1e-8*st {
			t.Errorf("n=%d: Parseval violated: time %g freq %g", n, st, sf)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 48
	p := MustPlan(n)
	x := randomVec(rng, n)
	y := randomVec(rng, n)
	alpha := complex(1.3, -0.7)
	z := make([]complex128, n)
	for i := range z {
		z[i] = x[i] + alpha*y[i]
	}
	fx, fy, fz := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	p.Forward(fx, x)
	p.Forward(fy, y)
	p.Forward(fz, z)
	for i := range fz {
		want := fx[i] + alpha*fy[i]
		if cmplx.Abs(fz[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d: got %v want %v", i, fz[i], want)
		}
	}
}

func TestDeltaTransformsToConstant(t *testing.T) {
	n := 30
	p := MustPlan(n)
	x := make([]complex128, n)
	x[0] = 1
	fx := make([]complex128, n)
	p.Forward(fx, x)
	for i, v := range fx {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta transform not constant at %d: %v", i, v)
		}
	}
}

func TestShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 36
	s := 5
	p := MustPlan(n)
	x := randomVec(rng, n)
	shifted := make([]complex128, n)
	for i := range x {
		shifted[i] = x[(i+s)%n]
	}
	fx, fs := make([]complex128, n), make([]complex128, n)
	p.Forward(fx, x)
	p.Forward(fs, shifted)
	for k := 0; k < n; k++ {
		phase := cmplx.Exp(complex(0, 2*math.Pi*float64(k*s)/float64(n)))
		if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-9 {
			t.Fatalf("shift theorem violated at k=%d", k)
		}
	}
}

func TestNewPlanRejectsBadLength(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Error("NewPlan(0) should fail")
	}
	if _, err := NewPlan(-3); err == nil {
		t.Error("NewPlan(-3) should fail")
	}
}

func TestNextFast(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 7: 7, 11: 12, 13: 14, 17: 18, 23: 24, 31: 32, 97: 98, 121: 125}
	for in, want := range cases {
		if got := NextFast(in); got != want {
			t.Errorf("NextFast(%d) = %d, want %d", in, got, want)
		}
	}
	if !IsFast(60) || IsFast(97) {
		t.Error("IsFast misclassifies 60 or 97")
	}
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		60:  {2, 2, 3, 5},
		97:  {97},
		1:   nil,
		128: {2, 2, 2, 2, 2, 2, 2},
	}
	for n, want := range cases {
		got := factorize(n)
		if len(got) != len(want) {
			t.Errorf("factorize(%d) = %v, want %v", n, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("factorize(%d) = %v, want %v", n, got, want)
				break
			}
		}
	}
}

func TestMergeRadix4(t *testing.T) {
	got := mergeRadix4([]int{2, 2, 2, 3, 5})
	want := []int{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("mergeRadix4 = %v, want %v", got, want)
	}
	prod := 1
	for i := range got {
		prod *= got[i]
		if got[i] != want[i] {
			t.Fatalf("mergeRadix4 = %v, want %v", got, want)
		}
	}
	if prod != 120 {
		t.Fatalf("product changed: %d", prod)
	}
}

func naiveDFT3(x []complex128, nx, ny, nz int, inverse bool) []complex128 {
	// Transform axis by axis with the 1D reference.
	out := make([]complex128, len(x))
	copy(out, x)
	// z axis
	for r := 0; r < nx*ny; r++ {
		copy(out[r*nz:(r+1)*nz], naiveDFT(out[r*nz:(r+1)*nz], inverse))
	}
	// y axis
	row := make([]complex128, ny)
	for ix := 0; ix < nx; ix++ {
		for iz := 0; iz < nz; iz++ {
			for iy := 0; iy < ny; iy++ {
				row[iy] = out[(ix*ny+iy)*nz+iz]
			}
			res := naiveDFT(row, inverse)
			for iy := 0; iy < ny; iy++ {
				out[(ix*ny+iy)*nz+iz] = res[iy]
			}
		}
	}
	// x axis
	col := make([]complex128, nx)
	for iy := 0; iy < ny; iy++ {
		for iz := 0; iz < nz; iz++ {
			for ix := 0; ix < nx; ix++ {
				col[ix] = out[(ix*ny+iy)*nz+iz]
			}
			res := naiveDFT(col, inverse)
			for ix := 0; ix < nx; ix++ {
				out[(ix*ny+iy)*nz+iz] = res[ix]
			}
		}
	}
	return out
}

func TestPlan3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := [][3]int{{2, 3, 4}, {4, 4, 4}, {3, 5, 6}, {6, 5, 4}, {8, 9, 10}}
	for _, d := range dims {
		p := MustPlan3(d[0], d[1], d[2])
		x := randomVec(rng, p.Size())
		got := make([]complex128, p.Size())
		p.Forward(got, x)
		want := naiveDFT3(x, d[0], d[1], d[2], false)
		if diff := maxAbsDiff(got, want); diff > 1e-8 {
			t.Errorf("dims %v: 3D forward max diff %g", d, diff)
		}
	}
}

func TestPlan3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := MustPlan3(6, 10, 12)
	x := randomVec(rng, p.Size())
	fx := make([]complex128, p.Size())
	back := make([]complex128, p.Size())
	p.Forward(fx, x)
	p.Inverse(back, fx)
	if d := maxAbsDiff(back, x); d > 1e-9 {
		t.Errorf("3D round trip max diff %g", d)
	}
}

func TestPlan3InPlaceAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := MustPlan3(4, 6, 5)
	x := randomVec(rng, p.Size())
	want := make([]complex128, p.Size())
	p.Forward(want, x)
	// In-place: dst aliases src.
	p.Forward(x, x)
	if d := maxAbsDiff(x, want); d > 1e-10 {
		t.Errorf("in-place 3D transform differs from out-of-place by %g", d)
	}
}

func TestApplySerialMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := MustPlan3(6, 6, 6)
	x := randomVec(rng, p.Size())
	a := make([]complex128, p.Size())
	b := make([]complex128, p.Size())
	p.Forward(a, x)
	p.ApplySerial(b, x, false)
	if d := maxAbsDiff(a, b); d > 1e-12 {
		t.Errorf("serial/parallel forward differ by %g", d)
	}
	p.Inverse(a, x)
	p.ApplySerial(b, x, true)
	if d := maxAbsDiff(a, b); d > 1e-12 {
		t.Errorf("serial/parallel inverse differ by %g", d)
	}
}

func BenchmarkFFT1D60(b *testing.B)  { benchFFT1D(b, 60) }
func BenchmarkFFT1D128(b *testing.B) { benchFFT1D(b, 128) }

func benchFFT1D(b *testing.B, n int) {
	p := MustPlan(n)
	rng := rand.New(rand.NewSource(1))
	x := randomVec(rng, n)
	y := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(y, x)
	}
}

func BenchmarkFFT3DWavefunctionGrid(b *testing.B) {
	// 18^3 is a typical laptop-scale wavefunction box for Si8 at 10 Ha.
	p := MustPlan3(18, 18, 18)
	rng := rand.New(rand.NewSource(1))
	x := randomVec(rng, p.Size())
	y := make([]complex128, p.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(y, x)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	// Plans are immutable after creation: many goroutines transforming
	// through one plan must not interfere (the batched Fock loop relies
	// on this).
	p := MustPlan3(6, 9, 10)
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]complex128, 16)
	wants := make([][]complex128, 16)
	for i := range inputs {
		inputs[i] = randomVec(rng, p.Size())
		wants[i] = make([]complex128, p.Size())
		p.ApplySerial(wants[i], inputs[i], false)
	}
	done := make(chan error, len(inputs))
	for i := range inputs {
		go func(i int) {
			got := make([]complex128, p.Size())
			p.ApplySerial(got, inputs[i], false)
			if maxAbsDiff(got, wants[i]) > 1e-12 {
				done <- fmt.Errorf("goroutine %d: concurrent transform differs", i)
				return
			}
			done <- nil
		}(i)
	}
	for range inputs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBluesteinLargePrime(t *testing.T) {
	// Sizes with prime factors beyond the direct-radix bound route through
	// the chirp-z path; verify a large prime against the naive DFT.
	for _, n := range []int{127, 251} {
		p := MustPlan(n)
		rng := rand.New(rand.NewSource(int64(n)))
		x := randomVec(rng, n)
		got := make([]complex128, n)
		p.Forward(got, x)
		want := naiveDFT(x, false)
		if d := maxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: Bluestein differs from naive DFT by %g", n, d)
		}
	}
}
