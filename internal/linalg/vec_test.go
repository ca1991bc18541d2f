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

// bandProducts runs Overlap(a, b), Overlap(a, a) and ApplyMatrix(a, u) on
// the Go loops at one worker - the oracle - and on every path at one and
// two workers, and reports the first element any of them does not
// reproduce bit for bit. a is na x ng, b nb x ng, u na x nb.
func bandProducts(a, b, u []complex128, na, nb, ng int) error {
	type product struct {
		name string
		n    int
		run  func(out []complex128)
	}
	products := []product{
		{"Overlap(a, b)", na * nb, func(s []complex128) { Overlap(s, a, b, na, nb, ng) }},
		{"Overlap(a, a)", na * na, func(s []complex128) { Overlap(s, a, a, na, na, ng) }},
		{"ApplyMatrix(a, u)", nb * ng, func(d []complex128) { ApplyMatrix(d, a, u, nb, na, ng) }},
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	want := make([][]complex128, len(products))
	host := hostcpu.AVX2
	hostcpu.AVX2 = false
	for p, pr := range products {
		want[p] = make([]complex128, pr.n)
		pr.run(want[p])
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
				a, b, u := randMat(rng, na, ng), randMat(rng, nb, ng), randMat(rng, na, nb)
				zeroEntries(rng, u)
				if err := bandProducts(a, b, u, na, nb, ng); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, sh := range [][3]int{{32, 32, 513}, {16, 16, 376}, {64, 64, 513}, {16, 8, 751}, {9, 64, 751}} {
		na, nb, ng := sh[0], sh[1], sh[2]
		a, b, u := randMat(rng, na, ng), randMat(rng, nb, ng), randMat(rng, na, nb)
		zeroEntries(rng, u)
		if err := bandProducts(a, b, u, na, nb, ng); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range [][3]int{{4, 4, 2}, {5, 9, 9}, {8, 8, 17}, {16, 12, 129}} {
		na, nb, ng := sh[0], sh[1], sh[2]
		for trial := 0; trial < 8; trial++ {
			a, b, u := specialMat(rng, na, ng), specialMat(rng, nb, ng), specialMat(rng, na, nb)
			zeroEntries(rng, u)
			if err := bandProducts(a, b, u, na, nb, ng); err != nil {
				t.Fatalf("special values: %v", err)
			}
		}
	}
}

// FuzzBandProducts is the property pin of the band-block kernels: for ANY
// band counts and point count, Overlap and ApplyMatrix on the kernels equal
// the Go loops bit for bit, at one and two workers. The corpus runs in a
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
		a, b, u := mat(rng, na, ng), mat(rng, nb, ng), mat(rng, na, nb)
		zeroEntries(rng, u)
		if err := bandProducts(a, b, u, na, nb, ng); err != nil {
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
		overlapVec(s, a, b, 0, nb, ng)
		return
	}
	overlapRows(s, a, b, 0, 4, nb, ng)
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
