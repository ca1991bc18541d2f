package fourier

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ptdft/internal/lanes"
)

// MustPlan is NewPlan that panics on error; for use with known-good sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// MustPlan3 is NewPlan3 that panics on error.
func MustPlan3(nx, ny, nz int) *Plan3 {
	p, err := NewPlan3(nx, ny, nz)
	if err != nil {
		panic(err)
	}
	return p
}

// naiveDFT is the O(N^2) reference every transform in this package is held
// to: the defining sum, written without looking at the code under test and
// evaluated well beyond double precision, so that what a test measures is
// the transform's own error. Its roots of unity are double-double values of
// a 160-bit series (exactRoots), every product x[j]*w is split exactly with
// math.FMA, and the sum is carried in double-double: the result is the
// exact DFT of x up to its final rounding (and, on the inverse, the 1/N).
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	w := exactRoots(n)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var re, im ddSum
		for j, v := range x {
			r := w[j*k%n]
			wih, wil := r.imHi, r.imLo
			if inverse {
				wih, wil = -wih, -wil
			}
			xr, xi := real(v), imag(v)
			re.addProd(xr, r.reHi)
			re.addProd(-xi, wih)
			im.addProd(xr, wih)
			im.addProd(xi, r.reHi)
			re.lo += float64(xr*r.reLo) - float64(xi*wil)
			im.lo += float64(xr*wil) + float64(xi*r.reLo)
		}
		out[k] = complex(re.hi+re.lo, im.hi+im.lo)
		if inverse {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}

// ddSum is a double-double running sum: hi carries the rounded sum, lo
// every rounding error (and every term too small to matter beyond it).
type ddSum struct{ hi, lo float64 }

// addProd adds x*y exactly: the rounded product through a two-sum into hi,
// the product's own rounding error (one FMA) into lo.
func (a *ddSum) addProd(x, y float64) {
	p := float64(x * y)
	s := a.hi + p
	b := s - a.hi
	a.lo += (a.hi - (s - b)) + (p - b) + math.FMA(x, y, -p)
	a.hi = s
}

// ddRoot is exp(-2*pi*i*j/n) as double-double parts.
type ddRoot struct{ reHi, reLo, imHi, imLo float64 }

var (
	exactRootsMu    sync.Mutex
	exactRootsCache = map[int][]ddRoot{}
)

// exactRoots tabulates exp(-2*pi*i*j/n), j < n, from Taylor series in
// 160-bit math/big arithmetic, split into double-double parts.
func exactRoots(n int) []ddRoot {
	exactRootsMu.Lock()
	defer exactRootsMu.Unlock()
	if w, ok := exactRootsCache[n]; ok {
		return w
	}
	const prec = 160
	pi, _, err := big.ParseFloat("3.14159265358979323846264338327950288419716939937510582097494459", 10, prec, big.ToNearestEven)
	if err != nil {
		panic(err)
	}
	split := func(v *big.Float) (float64, float64) {
		hi, _ := v.Float64()
		lo, _ := new(big.Float).SetPrec(prec).Sub(v, new(big.Float).SetFloat64(hi)).Float64()
		return hi, lo
	}
	w := make([]ddRoot, n)
	for j := range w {
		// theta = 2*pi*j/n; cos and sin by their series, term by term.
		theta := new(big.Float).SetPrec(prec).Mul(pi, big.NewFloat(float64(2*j)))
		theta.Quo(theta, big.NewFloat(float64(n)))
		cos, sin := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
		term := new(big.Float).SetPrec(prec).SetInt64(1)
		for i := 0; i < 120; i++ {
			switch i % 4 {
			case 0:
				cos.Add(cos, term)
			case 1:
				sin.Add(sin, term)
			case 2:
				cos.Sub(cos, term)
			case 3:
				sin.Sub(sin, term)
			}
			term.Mul(term, theta)
			term.Quo(term, big.NewFloat(float64(i+1)))
		}
		sin.Neg(sin)
		w[j].reHi, w[j].reLo = split(cos)
		w[j].imHi, w[j].imLo = split(sin)
	}
	exactRootsCache[n] = w
	return w
}

// laneTransform runs p over a lane block src in natural order the way a
// pass does - the gather into perm order, then the in-place stage loop -
// and returns the result, leaving src as it was.
func laneTransform(p *Plan, src lanes.Slab, inverse bool) lanes.Slab {
	b := lanes.New(p.n * lw)
	gatherStrided(b, src, 0, lw, lw, p)
	p.transformLanes(b, inverse)
	return b
}

// transform1D runs one length-n transform through the code under test,
// laneTransform, and returns it in the oracle's layout and normalization
// (1/N on the inverse). x rides in one lane of a lane block whose other
// lanes hold noise, which must not leak into it.
func transform1D(p *Plan, x []complex128, inverse bool, lane int) []complex128 {
	n := p.Len()
	rng := rand.New(rand.NewSource(int64(n)))
	src := lanes.New(n * lw)
	for i := range src.Re {
		src.Re[i], src.Im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for k, v := range x {
		src.Re[k*lw+lane], src.Im[k*lw+lane] = real(v), imag(v)
	}
	dst := laneTransform(p, src, inverse)
	out := make([]complex128, n)
	for k := range out {
		out[k] = complex(dst.Re[k*lw+lane], dst.Im[k*lw+lane])
		if inverse {
			out[k] /= complex(float64(n), 0)
		}
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

// TestForwardMatchesNaiveDFT holds every length of the closed set up to 128,
// and 210 = 2*3*5*7, to the exact DFT: 16 lane blocks of N(0,1) pencils per
// length, every pencil against naiveDFT. The bound, 4*eps*n, is twice the
// worst error the butterflies measure (2.24*eps*n, at n = 3 and 9; the
// direct radix-3 form they replaced measured 4.44 at n = 9), so a change
// that loses a bit of accuracy on any length fails here (EXPERIMENTS.md,
// "One bit-move for the butterflies", has the table). -v prints it.
func TestForwardMatchesNaiveDFT(t *testing.T) {
	var sizes []int
	for n := 1; n <= 128; n++ {
		if IsFast(n) {
			sizes = append(sizes, n)
		}
	}
	for _, n := range append(sizes, 210) {
		p := MustPlan(n)
		rng := rand.New(rand.NewSource(int64(n)))
		var worst float64
		for rep := 0; rep < 16; rep++ {
			src := randLaneSlab(rng, n*lw)
			got := laneTransform(p, src, false)
			x := make([]complex128, n)
			for l := 0; l < lw; l++ {
				for k := range x {
					x[k] = complex(src.Re[k*lw+l], src.Im[k*lw+l])
				}
				for k, v := range naiveDFT(x, false) {
					worst = max(worst, cmplx.Abs(complex(got.Re[k*lw+l], got.Im[k*lw+l])-v))
				}
			}
		}
		const eps = 0x1p-52
		t.Logf("n=%d: max error %.3e = %.2f eps*n", n, worst, worst/(eps*float64(n)))
		if worst > 4*eps*float64(n) {
			t.Errorf("n=%d: forward max error %.3e > 4 eps*n = %.3e", n, worst, 4*eps*float64(n))
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 10, 12, 14, 15, 21, 32, 35, 49, 60, 120, 210} {
		p := MustPlan(n)
		x := randomVec(rng, n)
		got := transform1D(p, x, true, n%lw)
		want := naiveDFT(x, true)
		if d := maxAbsDiff(got, want); d > 1e-12*float64(n) {
			t.Errorf("n=%d: inverse max diff %g", n, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 5, 7, 30, 49, 64, 210} {
		p := MustPlan(n)
		f := func(seed int64) bool {
			local := rand.New(rand.NewSource(seed))
			x := randomVec(local, n)
			back := transform1D(p, transform1D(p, x, false, 0), true, lw-1)
			return maxAbsDiff(back, x) < 1e-12*float64(n)
		}
		cfg := &quick.Config{MaxCount: 20, Rand: rng}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("n=%d: round trip property failed: %v", n, err)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 14, 15, 35, 60} {
		p := MustPlan(n)
		x := randomVec(rng, n)
		fx := transform1D(p, x, false, 3)
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
	fx, fy, fz := transform1D(p, x, false, 0), transform1D(p, y, false, 1), transform1D(p, z, false, 2)
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
	fx := transform1D(p, x, false, 5)
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
	fx, fs := transform1D(p, x, false, 4), transform1D(p, shifted, false, 4)
	for k := 0; k < n; k++ {
		phase := cmplx.Exp(complex(0, 2*math.Pi*float64(k*s)/float64(n)))
		if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-9 {
			t.Fatalf("shift theorem violated at k=%d", k)
		}
	}
}

// TestNewPlanRejectsBadLength: a length outside the closed set - below 1,
// or with a prime factor above 7 - is an error naming what is wrong, never
// a panic or a silent fallback.
func TestNewPlanRejectsBadLength(t *testing.T) {
	for n, want := range map[int]string{0: "< 1", -3: "< 1", 11: "factor 11", 13: "factor 13", 67: "factor 67", 97: "factor 97", 2 * 3 * 11: "factor 11"} {
		p, err := NewPlan(n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewPlan(%d) = %v, %v; want an error containing %q", n, p, err, want)
		}
	}
	if _, err := NewPlan3(4, 13, 4); err == nil || !strings.Contains(err.Error(), "factor 13") {
		t.Errorf("NewPlan3(4, 13, 4): %v; want an error naming factor 13", err)
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

// naiveDFT3 transforms axis by axis with the 1D reference; inverse carries
// the 1/N of all three axes.
func naiveDFT3(x []complex128, nx, ny, nz int, inverse bool) []complex128 {
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

// packed returns x as a grid slab.
func packed(x []complex128) lanes.Slab {
	s := lanes.New(len(x))
	lanes.Pack(s, x)
	return s
}

// tol3 is the absolute tolerance of a 3D comparison against the naive
// oracle on ~N(0,1) inputs: rounding grows with the magnitude the
// unnormalized transform accumulates.
func tol3(n int) float64 { return 1e-12 * (1 + math.Sqrt(float64(n))) }

// TestPlan3MatchesNaive holds the 3D transform itself, RawSlabWS, to the
// naive oracle on every lane-remainder shape of slabGrids (with its
// radix-5 and radix-7 axes) plus an nz = 18 box, whose y pass runs the
// 8 + 8 + 2 lane groups of the production wave box - forward and inverse,
// out of place and in place.
func TestPlan3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range append([][3]int{{2, 3, 4}, {6, 5, 18}}, slabGrids...) {
		p := MustPlan3(d[0], d[1], d[2])
		n := p.Size()
		ws := p.NewWorkspace()
		x := randomVec(rng, n)
		for _, inverse := range []bool{false, true} {
			want := naiveDFT3(x, d[0], d[1], d[2], inverse)
			if inverse { // the oracle normalizes, RawSlabWS does not
				for i := range want {
					want[i] *= complex(float64(n), 0)
				}
			}
			src, dst := packed(x), lanes.New(n)
			p.RawSlabWS(dst, src, inverse, ws)
			if diff := maxDiff(want, dst); diff > tol3(n) {
				t.Errorf("dims %v inverse=%v: max diff %g from the naive DFT", d, inverse, diff)
			}
			if maxDiff(x, src) != 0 {
				t.Errorf("dims %v inverse=%v: the out-of-place transform wrote its source", d, inverse)
			}
			p.RawSlabWS(src, src, inverse, ws)
			if diff := maxDiff(want, src); diff > tol3(n) {
				t.Errorf("dims %v inverse=%v: in-place max diff %g from the naive DFT", d, inverse, diff)
			}
		}
	}
}

// TestPlan3RoundTrip is the adapter's round trip: a []complex128 grid goes
// forward (checked against the oracle) and back through ApplySerialWS on
// one workspace and returns.
func TestPlan3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range [][3]int{{6, 10, 12}, {4, 49, 3}} {
		p := MustPlan3(d[0], d[1], d[2])
		ws := p.NewWorkspace()
		x := randomVec(rng, p.Size())
		fx := make([]complex128, p.Size())
		back := make([]complex128, p.Size())
		p.ApplySerialWS(fx, x, false, ws)
		if diff := maxAbsDiff(fx, naiveDFT3(x, d[0], d[1], d[2], false)); diff > tol3(p.Size()) {
			t.Errorf("dims %v: adapter forward max diff %g from the naive DFT", d, diff)
		}
		p.ApplySerialWS(back, fx, true, ws)
		if diff := maxAbsDiff(back, x); diff > 1e-12 {
			t.Errorf("dims %v: 3D round trip max diff %g", d, diff)
		}
	}
}

func TestPlan3InPlaceAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := MustPlan3(4, 6, 5)
	ws := p.NewWorkspace()
	x := randomVec(rng, p.Size())
	want := make([]complex128, p.Size())
	p.ApplySerialWS(want, x, false, ws)
	// In-place: dst aliases src.
	p.ApplySerialWS(x, x, false, ws)
	if d := maxAbsDiff(x, want); d != 0 {
		t.Errorf("in-place 3D transform differs from out-of-place by %g", d)
	}
}

// TestPlanConcurrentUse: plans are immutable after creation, so many
// goroutines transforming through one plan must not interfere (the batched
// Fock loop relies on this). Each goroutine draws its workspaces from the
// plan's pool and goes through the adapter, whose grid slab a recycled
// workspace may or may not carry yet; CI runs this with the race detector
// armed.
func TestPlanConcurrentUse(t *testing.T) {
	p := MustPlan3(6, 9, 10)
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]complex128, 16)
	wants := make([][]complex128, 16)
	ws := p.NewWorkspace()
	for i := range inputs {
		inputs[i] = randomVec(rng, p.Size())
		wants[i] = make([]complex128, p.Size())
		p.ApplySerialWS(wants[i], inputs[i], false, ws)
	}
	done := make(chan error, len(inputs))
	for i := range inputs {
		go func(i int) {
			got := make([]complex128, p.Size())
			for rep := 0; rep < 4; rep++ {
				ws := p.CheckoutWorkspace()
				p.ApplySerialWS(got, inputs[i], false, ws)
				p.ReturnWorkspace(ws)
				if maxAbsDiff(got, wants[i]) != 0 {
					done <- fmt.Errorf("goroutine %d: concurrent transform differs", i)
					return
				}
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
