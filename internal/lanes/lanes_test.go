package lanes

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// sizes crossing the Width boundary: empty tail, full tail, 1-element tail.
var sizes = []int{1, 7, 8, 9, 15, 16, 17, 64, 100}

func randComplex(rng *rand.Rand, n int) []complex128 {
	c := make([]complex128, n)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

func toSlab(c []complex128) Slab {
	s := New(len(c))
	Pack(s, c)
	return s
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		src := randComplex(rng, n)
		s := toSlab(src)
		back := make([]complex128, n)
		Unpack(back, s)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("n=%d i=%d round trip %v != %v", n, i, back[i], src[i])
			}
		}
	}
}

func TestKernelsMatchComplexReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const tol = 1e-13
	for _, n := range sizes {
		a := randComplex(rng, n)
		b := randComplex(rng, n)
		sa, sb := toSlab(a), toSlab(b)

		// DotRe
		got := DotRe(sa, sb)
		var ref float64
		for i := range a {
			ref += real(cmplx.Conj(a[i]) * b[i])
		}
		if math.Abs(got-ref) > tol*float64(n) {
			t.Fatalf("DotRe n=%d got %g want %g", n, got, ref)
		}
	}
}

func TestRowSliceViews(t *testing.T) {
	s := New(24)
	r := s.Row(1, 8)
	if r.Len() != 8 {
		t.Fatalf("row len %d", r.Len())
	}
	r.Re[0] = 42
	if s.Re[8] != 42 {
		t.Fatal("Row is not a view")
	}
	v := s.Slice(8, 16)
	if v.Re[0] != 42 {
		t.Fatal("Slice is not a view")
	}
	s.Zero()
	if s.Re[8] != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestReduceAdd(t *testing.T) {
	acc := [Width]float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := ReduceAdd(&acc); got != 36 {
		t.Fatalf("ReduceAdd got %g", got)
	}
}
