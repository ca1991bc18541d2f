package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptdft/internal/hostcpu"
	"ptdft/internal/parallel"
)

// forEachVec runs fn on the Go loops and then, where init found AVX2, on the
// vector kernels, and puts hostcpu.AVX2 back. Tests in this package do not run
// in parallel, so flipping the switch is safe.
func forEachVec(fn func(vec bool)) {
	host := hostcpu.AVX2
	defer func() { hostcpu.AVX2 = host }()
	hostcpu.AVX2 = false
	fn(false)
	if host {
		hostcpu.AVX2 = true
		fn(true)
	}
}

// sameBits reports whether x and y are the same float64 bit for bit, any
// two NaNs counting as the same: both paths round alike, but which NaN
// payload survives a product of two NaNs is the CPU's operand order, not
// the expression's.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// firstDiff returns the index of the first element where got and want are
// not the same bits in both parts, or -1.
func firstDiff(got, want []complex128) int {
	for k := range want {
		if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
			return k
		}
	}
	return -1
}

// bandProducts runs Overlap(a, b), Overlap(a, a), Gram(a), ApplyMatrix(a,
// u) and SolveLowerBands(l, a) on the Go loops at one worker - the oracle,
// where Gram's is Overlap(a, a) - and on every path at one and two workers,
// and reports the first element any of them does not reproduce bit for bit.
// a is na x ng, b nb x ng, u na x nb, l na x na.
func bandProducts(a, b, u, l []complex128, na, nb, ng int) error {
	type product struct {
		name     string
		n        int
		run, ref func(out []complex128)
	}
	self := func(s []complex128) { Overlap(s, a, a, na, na, ng) }
	products := []product{
		{"Overlap(a, b)", na * nb, func(s []complex128) { Overlap(s, a, b, na, nb, ng) }, nil},
		{"Overlap(a, a)", na * na, self, nil},
		{"Gram(a)", na * na, func(s []complex128) { Gram(s, a, na, ng) }, self},
		{"ApplyMatrix(a, u)", nb * ng, func(d []complex128) { ApplyMatrix(d, a, u, nb, na, ng) }, nil},
		{"SolveLowerBands(l, a)", na * ng, func(x []complex128) { copy(x, a); SolveLowerBands(l, x, na, ng) }, nil},
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	want := make([][]complex128, len(products))
	host := hostcpu.AVX2
	hostcpu.AVX2 = false
	for p, pr := range products {
		want[p] = make([]complex128, pr.n)
		if pr.ref == nil {
			pr.ref = pr.run
		}
		pr.ref(want[p])
	}
	hostcpu.AVX2 = host
	var err error
	forEachVec(func(vec bool) {
		for _, workers := range []int{1, 2} {
			parallel.SetMaxWorkers(workers)
			for p, pr := range products {
				got := make([]complex128, pr.n)
				for k := range got {
					got[k] = complex(math.NaN(), math.NaN()) // every element must be written
				}
				pr.run(got)
				if k := firstDiff(got, want[p]); k >= 0 && err == nil {
					err = fmt.Errorf("%s na=%d nb=%d ng=%d kernels=%v workers=%d: element %d is %v, the Go loop's %v",
						pr.name, na, nb, ng, vec, workers, k, got[k], want[p][k])
				}
			}
		}
	})
	return err
}

// specialMat fills a random matrix and plants the values that round or
// propagate unusually: zeros of both signs, infinities, NaN and subnormals.
func specialMat(rng *rand.Rand, m, n int) []complex128 {
	x := randMat(rng, m, n)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -1e-310, 1e300}
	for k := 0; k < len(x)/16+1 && len(x) > 0; k++ {
		i := rng.Intn(len(x))
		re, im := real(x[i]), imag(x[i])
		if rng.Intn(2) == 0 {
			re = special[rng.Intn(len(special))]
		} else {
			im = special[rng.Intn(len(special))]
		}
		x[i] = complex(re, im)
	}
	return x
}

// zeroEntries sets about a third of u to zero of either sign in either
// part, the coefficients applyMatrixCol skips.
func zeroEntries(rng *rand.Rand, u []complex128) {
	negZero := math.Copysign(0, -1)
	zeros := []complex128{0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero)}
	for k := range u {
		if rng.Intn(3) == 0 {
			u[k] = zeros[rng.Intn(len(zeros))]
		}
	}
}

// TestBandProductsBitIdentical holds the band-block kernels to the Go loops
// with == on every float (NaN to NaN): every remainder of the 4x4 overlap
// blocks and of the 8-point rotation chunks, the odd last point, the
// self-overlap, coefficients that are zeros of either sign, and NaN, Inf
// and subnormal inputs, at one and two workers. Without AVX2 it still
// checks the worker split against the one-worker Go loop.
func TestBandProductsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	bands := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 64}
	points := []int{0, 1, 2, 7, 8, 9, 129, 376, 513, 751}
	for _, na := range bands {
		for _, nb := range bands {
			for _, ng := range points {
				if na*nb*ng > 64*64*129 {
					continue // the large blocks run at the workloads' shapes below
				}
				a, b, u, l := randMat(rng, na, ng), randMat(rng, nb, ng), randMat(rng, na, nb), randMat(rng, na, na)
				zeroEntries(rng, u)
				zeroEntries(rng, l)
				if err := bandProducts(a, b, u, l, na, nb, ng); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, sh := range [][3]int{{32, 32, 513}, {16, 16, 376}, {64, 64, 513}, {16, 8, 751}, {9, 64, 751}} {
		na, nb, ng := sh[0], sh[1], sh[2]
		a, b, u, l := randMat(rng, na, ng), randMat(rng, nb, ng), randMat(rng, na, nb), randMat(rng, na, na)
		zeroEntries(rng, u)
		zeroEntries(rng, l)
		if err := bandProducts(a, b, u, l, na, nb, ng); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range [][3]int{{4, 4, 2}, {5, 9, 9}, {8, 8, 17}, {16, 12, 129}} {
		na, nb, ng := sh[0], sh[1], sh[2]
		for trial := 0; trial < 8; trial++ {
			a, b, u, l := specialMat(rng, na, ng), specialMat(rng, nb, ng), specialMat(rng, na, nb), specialMat(rng, na, na)
			zeroEntries(rng, u)
			zeroEntries(rng, l)
			if err := bandProducts(a, b, u, l, na, nb, ng); err != nil {
				t.Fatalf("special values: %v", err)
			}
		}
	}
}

// TestGramBitIdentical holds Gram to Overlap(s, a, a, ...) bit for bit on
// the Go loops and on the kernels, at one, two and four workers, over every
// remainder of the 4x4 tiles and the odd last point. Every third band is
// real, so pairs of them have imaginary sums of exactly zero, which the
// mirror must leave +0.
func TestGramBitIdentical(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(56))
	for _, n := range []int{1, 3, 4, 5, 13, 16, 32, 33, 64} {
		for _, ng := range []int{1, 7, 100, 2917} {
			a := randMat(rng, n, ng)
			for k := 0; k < n*ng; k += 3 * ng {
				for g := k; g < k+ng; g++ {
					a[g] = complex(real(a[g]), 0)
				}
			}
			want, got := make([]complex128, n*n), make([]complex128, n*n)
			forEachVec(func(vec bool) {
				for _, workers := range []int{1, 2, 4} {
					parallel.SetMaxWorkers(workers)
					Overlap(want, a, a, n, n, ng)
					for k := range got {
						got[k] = complex(math.NaN(), math.NaN()) // every element must be written
					}
					Gram(got, a, n, ng)
					if k := firstDiff(got, want); k >= 0 {
						t.Fatalf("n=%d ng=%d kernels=%v workers=%d: s[%d,%d] = %v, Overlap's %v",
							n, ng, vec, workers, k/n, k%n, got[k], want[k])
					}
				}
			})
		}
	}
}

// TestSolveLowerBandsBitIdentical holds the forward substitution's kernel
// to the Go loop bit for bit: every ng mod 8, ranges whose lo is not a
// multiple of 8 (what ForBlock hands a worker), coefficients that are zeros
// of either sign, and NaN, Inf and subnormal coefficients and points. The
// points outside the range must come back untouched.
func TestSolveLowerBandsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 32} {
		for ng := 0; ng < 90; ng += 1 + ng/24 {
			for _, lo := range []int{0, 1, 3, 5} {
				for trial := 0; trial < 2; trial++ {
					hi := max(lo, ng-trial*3)
					if lo > ng {
						continue
					}
					mat := randMat
					if trial == 1 {
						mat = specialMat
					}
					l, x := mat(rng, n, n), mat(rng, n, ng)
					zeroEntries(rng, l)
					var got, want []complex128
					forEachVec(func(vec bool) {
						y := append([]complex128(nil), x...)
						solveLowerBandsRange(l, y, n, ng, lo, hi)
						if vec {
							got = y
						} else {
							want = y
						}
					})
					if got == nil {
						continue
					}
					if k := firstDiff(got, want); k >= 0 {
						t.Fatalf("n=%d ng=%d points %d..%d special=%v: x[%d][%d] = %v, the Go loop's %v",
							n, ng, lo, hi, trial == 1, k/max(ng, 1), k%max(ng, 1), got[k], want[k])
					}
				}
			}
		}
	}
}

// FuzzBandProducts is the property pin of the band-block kernels: for ANY
// band counts and point count, Overlap, Gram, ApplyMatrix and
// SolveLowerBands on the kernels equal the Go loops bit for bit, and Gram
// equals Overlap(a, a), at one and two workers. The corpus runs in a
// plain `go test`.
func FuzzBandProducts(f *testing.F) {
	f.Add(uint8(32), uint8(32), uint16(513), false, int64(1))
	f.Add(uint8(16), uint8(8), uint16(751), true, int64(2))
	f.Add(uint8(5), uint8(7), uint16(9), true, int64(3))
	f.Add(uint8(4), uint8(4), uint16(1), false, int64(4))
	f.Fuzz(func(t *testing.T, bna, bnb uint8, bng uint16, special bool, seed int64) {
		na, nb, ng := 1+int(bna)%40, 1+int(bnb)%40, int(bng)%800
		rng := rand.New(rand.NewSource(seed))
		mat := randMat
		if special {
			mat = specialMat
		}
		a, b, u, l := mat(rng, na, ng), mat(rng, nb, ng), mat(rng, na, nb), mat(rng, na, na)
		zeroEntries(rng, u)
		zeroEntries(rng, l)
		if err := bandProducts(a, b, u, l, na, nb, ng); err != nil {
			t.Fatal(err)
		}
	})
}

// TestVecBoundsPanic holds the wrappers to the wrapper-checks rule: a slice
// too short for the block or band a kernel would read or write panics in
// the wrapper, with its own message, before any raw pointer is taken. The Go
// loops panic on the same slices through their slicing.
func TestVecBoundsPanic(t *testing.T) {
	const nb, ng = 8, 17
	full := func(n int) []complex128 {
		x := make([]complex128, n)
		for k := range x {
			x[k] = 1 // no coefficient the rotation's Go loop would skip
		}
		return x
	}
	cases := []struct {
		name string
		run  func(vec bool)
	}{
		{"overlap: short s", func(vec bool) { overlapRowsOrVec(vec, full(4*nb-1), full(4*ng), full(nb*ng), nb, ng) }},
		{"overlap: short a", func(vec bool) { overlapRowsOrVec(vec, full(4*nb), full(4*ng-1), full(nb*ng), nb, ng) }},
		{"overlap: short b", func(vec bool) { overlapRowsOrVec(vec, full(4*nb), full(4*ng), full(nb*ng-1), nb, ng) }},
		{"rotation: short dst", func(vec bool) { applyMatrixColOrVec(vec, full(3*ng-1), full(4*ng), full(4*3), 2, 3, 4, ng) }},
		{"rotation: short src", func(vec bool) { applyMatrixColOrVec(vec, full(3*ng), full(4*ng-1), full(4*3), 2, 3, 4, ng) }},
		{"rotation: short u", func(vec bool) { applyMatrixColOrVec(vec, full(3*ng), full(4*ng), full(3*3+2), 2, 3, 4, ng) }},
		{"solve: short l", func(vec bool) { solveLowerOrVec(vec, full(3*3-2), full(3*ng), 3, ng) }},
		{"solve: short x", func(vec bool) { solveLowerOrVec(vec, full(3*3), full(3*ng-1), 3, ng) }},
	}
	for _, tc := range cases {
		forEachVec(func(vec bool) {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s (vector kernels %v): no panic", tc.name, vec)
				}
				// A runtime error on the kernel path would be the Go loop
				// or the kernel faulting, not the wrapper's check.
				if _, msg := r.(string); vec && !msg {
					t.Errorf("%s (vector kernels): %v, not the wrapper's panic", tc.name, r)
				}
			}()
			tc.run(vec)
		})
	}
}

// overlapRowsOrVec calls the overlap wrapper directly on the kernel path,
// and the Go loop the rows would fall back to otherwise.
func overlapRowsOrVec(vec bool, s, a, b []complex128, nb, ng int) {
	if vec {
		overlapVec(s, a, b, 0, 0, nb, nb, ng)
		return
	}
	overlapBlock(s, a, b, 0, 0, nb, 4, nb, ng)
}

// applyMatrixColOrVec calls the rotation wrapper directly on the kernel
// path, and the Go loop otherwise.
func applyMatrixColOrVec(vec bool, dst, src, u []complex128, j, nOut, nIn, ng int) {
	if vec {
		applyMatrixVec(dst, src, u, j, nOut, nIn, ng)
		return
	}
	applyMatrixCol(dst, src, u, j, nOut, nIn, ng)
}

// solveLowerOrVec calls the forward substitution's wrapper directly on the
// kernel path, for the last band, and the Go loop otherwise.
func solveLowerOrVec(vec bool, l, x []complex128, n, ng int) {
	if vec {
		solveLowerVec(l, x, n-1, n, ng, 0, ng, 1)
		return
	}
	solveLowerBandsRange(l, x, n, ng, 0, ng)
}

// BenchmarkBandProducts times Overlap and ApplyMatrix on the Go loops and
// on the kernels at the shapes the workloads run: (32, 32, 513) the
// semilocal residual, (16, 16, 376) and (16, 16, 129) the two-rank rows'
// local G slabs, (64, 64, 513) Si16's eigStep pencil and (16, 8, 751)
// ExcitedElectrons. The machine is noisy, so compare the two paths within
// one run, not across runs.
func BenchmarkBandProducts(b *testing.B) {
	for _, sh := range [][3]int{{32, 32, 513}, {16, 16, 376}, {16, 16, 129}, {64, 64, 513}, {16, 8, 751}} {
		na, nb, ng := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(1))
		x, y, u := randMat(rng, na, ng), randMat(rng, nb, ng), randMat(rng, na, nb)
		s, dst := make([]complex128, na*nb), make([]complex128, nb*ng)
		forEachVec(func(vec bool) {
			b.Run(fmt.Sprintf("Overlap/%dx%dx%d/kernels=%v", na, nb, ng, vec), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Overlap(s, x, y, na, nb, ng)
				}
			})
			b.Run(fmt.Sprintf("ApplyMatrix/%dx%dx%d/kernels=%v", na, nb, ng, vec), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ApplyMatrix(dst, x, u, nb, na, ng)
				}
			})
		})
	}
}

// The Rayleigh-Ritz shapes of the ground state: the 2nb-band pencil's B and
// the nb-band orthonormalization on Si16 (32 x 513 and 64 x 64 in the
// pencil's own solves) and on Si32 (64 x 1037 and 128 x 128).
var rrShapes = [][2]int{{32, 513}, {64, 64}, {64, 1037}, {128, 128}}

// BenchmarkGram times Gram against Overlap(s, a, a, ...) on the Go loops and
// on the kernels at the Rayleigh-Ritz shapes. Compare within one run.
func BenchmarkGram(b *testing.B) {
	for _, sh := range rrShapes {
		n, ng := sh[0], sh[1]
		a, s := randMat(rand.New(rand.NewSource(1)), n, ng), make([]complex128, n*n)
		forEachVec(func(vec bool) {
			for _, gram := range []bool{false, true} {
				b.Run(fmt.Sprintf("%dx%d/gram=%v/kernels=%v", n, ng, gram, vec), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if gram {
							Gram(s, a, n, ng)
						} else {
							Overlap(s, a, a, n, n, ng)
						}
					}
				})
			}
		})
	}
}

// BenchmarkSolveLowerBands times the forward substitution on the Go loop and
// on the kernel at the Rayleigh-Ritz shapes, each solve on a fresh copy of
// the same bands, with a diagonal that keeps them finite. Compare within
// one run.
func BenchmarkSolveLowerBands(b *testing.B) {
	for _, sh := range rrShapes {
		n, ng := sh[0], sh[1]
		rng := rand.New(rand.NewSource(1))
		l, x0, x := randMat(rng, n, n), randMat(rng, n, ng), make([]complex128, n*ng)
		for i := 0; i < n; i++ {
			l[i*n+i] = complex(float64(n), 0)
		}
		forEachVec(func(vec bool) {
			b.Run(fmt.Sprintf("%dx%d/kernels=%v", n, ng, vec), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(x, x0)
					SolveLowerBands(l, x, n, ng)
				}
			})
		})
	}
}
