package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ptdft/internal/parallel"
)

func randMat(rng *rand.Rand, m, n int) []complex128 {
	a := make([]complex128, m*n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

// randHermitian returns a random Hermitian n x n matrix.
func randHermitian(rng *rand.Rand, n int) []complex128 {
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = complex(rng.NormFloat64(), 0)
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			a[i*n+j] = v
			a[j*n+i] = cmplx.Conj(v)
		}
	}
	return a
}

// randHPD returns a random Hermitian positive definite matrix B = M^H M + n*I.
func randHPD(rng *rand.Rand, n int) []complex128 {
	m := randMat(rng, n, n)
	b := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc complex128
			for k := 0; k < n; k++ {
				acc += cmplx.Conj(m[k*n+i]) * m[k*n+j]
			}
			b[i*n+j] = acc
		}
		b[i*n+i] += complex(float64(n), 0)
	}
	return b
}

func cAbsMax(a []complex128) float64 {
	var mx float64
	for _, v := range a {
		if x := cmplx.Abs(v); x > mx {
			mx = x
		}
	}
	return mx
}

func TestOverlapMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	na, nb, ng := 4, 5, 37
	a := randMat(rng, na, ng)
	b := randMat(rng, nb, ng)
	s := make([]complex128, na*nb)
	Overlap(s, a, b, na, nb, ng)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			var want complex128
			for g := 0; g < ng; g++ {
				want += cmplx.Conj(a[i*ng+g]) * b[j*ng+g]
			}
			if cmplx.Abs(s[i*nb+j]-want) > 1e-10 {
				t.Fatalf("Overlap[%d,%d] = %v, want %v", i, j, s[i*nb+j], want)
			}
		}
	}
}

func TestOverlapHermitianOnSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, ng := 6, 50
	a := randMat(rng, n, ng)
	s := make([]complex128, n*n)
	Overlap(s, a, a, n, n, ng)
	for i := 0; i < n; i++ {
		if math.Abs(imag(s[i*n+i])) > 1e-10 {
			t.Errorf("diagonal %d not real: %v", i, s[i*n+i])
		}
		for j := 0; j < n; j++ {
			if cmplx.Abs(s[i*n+j]-cmplx.Conj(s[j*n+i])) > 1e-10 {
				t.Errorf("overlap not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}

func TestApplyMatrixMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nIn, nOut, ng := 4, 3, 17
	src := randMat(rng, nIn, ng)
	u := randMat(rng, nIn, nOut)
	dst := make([]complex128, nOut*ng)
	ApplyMatrix(dst, src, u, nOut, nIn, ng)
	for j := 0; j < nOut; j++ {
		for g := 0; g < ng; g++ {
			var want complex128
			for i := 0; i < nIn; i++ {
				want += u[i*nOut+j] * src[i*ng+g]
			}
			if cmplx.Abs(dst[j*ng+g]-want) > 1e-10 {
				t.Fatalf("ApplyMatrix[%d,%d] mismatch", j, g)
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 5, 12} {
		b := randHPD(rng, n)
		l := make([]complex128, n*n)
		copy(l, b)
		if err := CholeskyLower(l, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct L L^H and compare.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var acc complex128
				for k := 0; k <= min(i, j); k++ {
					acc += l[i*n+k] * cmplx.Conj(l[j*n+k])
				}
				if cmplx.Abs(acc-b[i*n+j]) > 1e-9*float64(n) {
					t.Fatalf("n=%d: LL^H differs from B at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []complex128{1, 0, 0, -1} // diag(1,-1)
	if err := CholeskyLower(a, 2); err == nil {
		t.Error("expected failure for indefinite matrix")
	}
}

func TestSolveLowerBandsOrthogonalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, ng := 5, 64
	x := randMat(rng, n, ng)
	s := make([]complex128, n*n)
	Overlap(s, x, x, n, n, ng)
	if err := CholeskyLower(s, n); err != nil {
		t.Fatal(err)
	}
	SolveLowerBands(s, x, n, ng)
	s2 := make([]complex128, n*n)
	Overlap(s2, x, x, n, n, ng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(s2[i*n+j]-want) > 1e-9 {
				t.Fatalf("not orthonormal at (%d,%d): %v", i, j, s2[i*n+j])
			}
		}
	}
}

func TestSolveLinearRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, k := 8, 3
	a := randMat(rng, n, n)
	x := randMat(rng, n, k)
	// b = a*x
	b := make([]complex128, n*k)
	for i := 0; i < n; i++ {
		for p := 0; p < n; p++ {
			for j := 0; j < k; j++ {
				b[i*k+j] += a[i*n+p] * x[p*k+j]
			}
		}
	}
	ac := make([]complex128, n*n)
	copy(ac, a)
	if err := SolveLinear(ac, b, n, k); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatalf("solution differs at %d: got %v want %v", i, b[i], x[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := make([]complex128, 4) // zero matrix
	b := make([]complex128, 2)
	if err := SolveLinear(a, b, 2, 1); err == nil {
		t.Error("expected singular matrix error")
	}
}

// eigCase is one Hermitian matrix HermEig must diagonalize, with its
// spectrum in ascending order where it is known exactly.
type eigCase struct {
	name string
	n    int
	a    []complex128
	want []float64
}

// eigCases returns random matrices at every size from 1 to the ground
// state's pencils (2nb = 32 on Si8, 64 on Si16) and the shapes that reach
// the solver's special paths: Householder columns of zero norm (diagonal,
// tridiagonal, zero), a tridiagonal that splits (block diagonal), an exactly
// degenerate spectrum, and a late-SCF pencil whose off-diagonals are small.
func eigCases() []eigCase {
	rng := rand.New(rand.NewSource(7))
	var cs []eigCase
	for _, n := range []int{1, 2, 3, 6, 10, 20, 32, 64} {
		cs = append(cs, eigCase{fmt.Sprintf("random/n=%d", n), n, randHermitian(rng, n), nil})
	}
	cs = append(cs, eigCase{"zero/n=8", 8, make([]complex128, 64), make([]float64, 8)})
	diag, dwant := make([]complex128, 16*16), make([]float64, 16)
	for i := range dwant {
		dwant[i] = rng.NormFloat64()
		diag[i*16+i] = complex(dwant[i], 0)
	}
	sort.Float64s(dwant)
	cs = append(cs, eigCase{"diagonal/n=16", 16, diag, dwant})
	tri := make([]complex128, 16*16)
	for i := 0; i < 16; i++ {
		tri[i*16+i] = complex(rng.NormFloat64(), 0)
		if i > 0 {
			x := complex(rng.NormFloat64(), rng.NormFloat64())
			tri[i*16+i-1], tri[(i-1)*16+i] = x, cmplx.Conj(x)
		}
	}
	cs = append(cs, eigCase{"tridiagonal/n=16", 16, tri, nil})
	// Blocks of 10 and 6: the tridiagonal's sub-diagonal is zero at row 10.
	blk := make([]complex128, 16*16)
	for _, b := range []struct{ lo, n int }{{0, 10}, {10, 6}} {
		h := randHermitian(rng, b.n)
		for i := 0; i < b.n; i++ {
			copy(blk[(b.lo+i)*16+b.lo:(b.lo+i)*16+b.lo+b.n], h[i*b.n:(i+1)*b.n])
		}
	}
	cs = append(cs, eigCase{"blockdiagonal/n=16", 16, blk, nil})
	// I + x x^H: eigenvalue 1 with multiplicity n-1, and 1 + |x|^2.
	for _, n := range []int{3, 32} {
		x := randMat(rng, n, 1)
		deg, want := make([]complex128, n*n), make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				deg[i*n+j] = x[i] * cmplx.Conj(x[j])
			}
			deg[i*n+i] += 1
			want[i]++
			want[n-1] += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		cs = append(cs, eigCase{fmt.Sprintf("degenerate/n=%d", n), n, deg, want})
	}
	for _, n := range []int{32, 64} {
		a := randHermitian(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					a[i*n+j] *= 1e-3
				}
			}
		}
		cs = append(cs, eigCase{fmt.Sprintf("offdiag1e-3/n=%d", n), n, a, nil})
	}
	return cs
}

func frobenius(a []complex128) float64 {
	var s float64
	for _, x := range a {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// checkEig holds HermEig's contract on one matrix: ascending eigenvalues,
// ||A v_k - lambda_k v_k|| <= 1e-12 ||A||, orthonormal columns, the
// eigenvalues summing to the trace, and the spectrum where it is known.
func checkEig(t *testing.T, c eigCase, evals []float64, v []complex128) {
	t.Helper()
	n, a := c.n, c.a
	norm := frobenius(a)
	var tr, se float64
	for k := 0; k < n; k++ {
		if k > 0 && evals[k] < evals[k-1] {
			t.Fatalf("eigenvalues not ascending at %d: %g < %g", k, evals[k], evals[k-1])
		}
		tr += real(a[k*n+k])
		se += evals[k]
		var res float64
		for i := 0; i < n; i++ {
			var av complex128
			for j := 0; j < n; j++ {
				av += a[i*n+j] * v[j*n+k]
			}
			d := av - complex(evals[k], 0)*v[i*n+k]
			res += real(d)*real(d) + imag(d)*imag(d)
		}
		if res = math.Sqrt(res); res > 1e-12*norm {
			t.Fatalf("eigenpair %d: residual %.3g > 1e-12 * ||A|| = %.3g", k, res, 1e-12*norm)
		}
		for k2 := 0; k2 < n; k2++ {
			var d complex128
			for i := 0; i < n; i++ {
				d += cmplx.Conj(v[i*n+k]) * v[i*n+k2]
			}
			if k == k2 {
				d--
			}
			if cmplx.Abs(d) > 1e-13*float64(n) {
				t.Fatalf("eigenvectors %d, %d: V^H V - I = %.3g", k, k2, cmplx.Abs(d))
			}
		}
	}
	if math.Abs(tr-se) > 1e-12*norm {
		t.Fatalf("eigenvalues sum to %.17g, trace %.17g", se, tr)
	}
	for k, w := range c.want {
		if math.Abs(evals[k]-w) > 1e-13*(1+norm) {
			t.Errorf("eigenvalue %d = %.17g, want %.17g", k, evals[k], w)
		}
	}
}

func TestHermEigDiagonalizes(t *testing.T) {
	for _, c := range eigCases() {
		t.Run(c.name, func(t *testing.T) {
			evals, v, err := HermEig(c.a, c.n)
			if err != nil {
				t.Fatal(err)
			}
			checkEig(t, c, evals, v)
		})
	}
}

// sameEigBits reports whether two HermEig results are equal bit for bit.
func sameEigBits(e1, e2 []float64, v1, v2 []complex128) bool {
	for k := range e1 {
		if math.Float64bits(e1[k]) != math.Float64bits(e2[k]) {
			return false
		}
	}
	for i := range v1 {
		if math.Float64bits(real(v1[i])) != math.Float64bits(real(v2[i])) ||
			math.Float64bits(imag(v1[i])) != math.Float64bits(imag(v2[i])) {
			return false
		}
	}
	return true
}

// TestHermEigSameBitsAnyWorkers: the solver is serial, so the worker count
// cannot move a bit of what it returns.
func TestHermEigSameBitsAnyWorkers(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	for _, c := range eigCases() {
		parallel.SetMaxWorkers(1)
		e1, v1, err1 := HermEig(c.a, c.n)
		parallel.SetMaxWorkers(2)
		e2, v2, err2 := HermEig(c.a, c.n)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", c.name, err1, err2)
		}
		if !sameEigBits(e1, e2, v1, v2) {
			t.Errorf("%s: eigenpairs differ between 1 and 2 workers", c.name)
		}
	}
}

// TestHermEigReadsLowerTriangle: the strict upper triangle and the
// diagonal's imaginary parts are never read, so GenEigChol's L^{-1} A
// L^{-H}, Hermitian only to round-off, is diagonalized as its lower half.
func TestHermEigReadsLowerTriangle(t *testing.T) {
	const n = 32
	a := randHermitian(rand.New(rand.NewSource(12)), n)
	b := append([]complex128(nil), a...)
	for i := 0; i < n; i++ {
		b[i*n+i] += 1i
		for j := i + 1; j < n; j++ {
			b[i*n+j] = complex(math.NaN(), 1)
		}
	}
	e1, v1, err1 := HermEig(a, n)
	e2, v2, err2 := HermEig(b, n)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v, %v", err1, err2)
	}
	if !sameEigBits(e1, e2, v1, v2) {
		t.Error("eigenpairs depend on the upper triangle or the diagonal's imaginary parts")
	}
}

// TestHermEigRejectsNonFinite: a NaN or Inf element is an error, not a
// panic or a loop.
func TestHermEigRejectsNonFinite(t *testing.T) {
	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1))} {
		a := randHermitian(rand.New(rand.NewSource(3)), 5)
		a[3*5+1], a[1*5+3] = bad, cmplx.Conj(bad)
		if _, _, err := HermEig(a, 5); err == nil {
			t.Errorf("HermEig with element %v returned no error", bad)
		}
	}
}

func TestHermEigTraceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + int(uint64(seed)%64)
		a := randHermitian(local, n)
		evals, _, err := HermEig(a, n)
		if err != nil {
			return false
		}
		var tr, se float64
		for i := 0; i < n; i++ {
			tr += real(a[i*n+i])
			se += evals[i]
		}
		return math.Abs(tr-se) < 1e-12*frobenius(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGenEigChol(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 7, 32, 64} {
		a := randHermitian(rng, n)
		b := randHPD(rng, n)
		evals, x, err := GenEigChol(a, b, n)
		if err != nil {
			t.Fatal(err)
		}
		scale := frobenius(a) + frobenius(b)*math.Max(math.Abs(evals[0]), math.Abs(evals[n-1]))
		for k := 0; k < n; k++ {
			if k > 0 && evals[k] < evals[k-1] {
				t.Fatalf("n=%d: eigenvalues not ascending at %d", n, k)
			}
			// A x_k = lambda_k B x_k.
			var res float64
			for i := 0; i < n; i++ {
				var ax, bx complex128
				for j := 0; j < n; j++ {
					ax += a[i*n+j] * x[j*n+k]
					bx += b[i*n+j] * x[j*n+k]
				}
				d := ax - complex(evals[k], 0)*bx
				res += real(d)*real(d) + imag(d)*imag(d)
			}
			if res = math.Sqrt(res); res > 1e-12*scale {
				t.Fatalf("n=%d: generalized eigenpair %d residual %.3g", n, k, res)
			}
			// B-orthonormality.
			for k2 := 0; k2 < n; k2++ {
				var d complex128
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						d += cmplx.Conj(x[i*n+k]) * b[i*n+j] * x[j*n+k2]
					}
				}
				if k == k2 {
					d--
				}
				if cmplx.Abs(d) > 1e-13*float64(n) {
					t.Fatalf("n=%d: X^H B X - I = %.3g at (%d,%d)", n, cmplx.Abs(d), k, k2)
				}
			}
		}
	}
}

func TestDotNorm(t *testing.T) {
	a := []complex128{complex(3, 4)}
	if n2 := Dot(a, a); n2 != 25 {
		t.Errorf("<a|a> = %v, want 25", n2)
	}
	b := []complex128{complex(1, 1)}
	d := Dot(a, b)
	// conj(3+4i)*(1+i) = (3-4i)(1+i) = 3+3i-4i+4 = 7-i
	if cmplx.Abs(d-complex(7, -1)) > 1e-14 {
		t.Errorf("Dot = %v, want 7-i", d)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	hpd := randHPD(rng, n)
	w := make([]complex128, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w, hpd)
		if err := CholeskyLower(w, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenEigChol times the Rayleigh-Ritz pencil solve of the ground
// state's eigensolver step at its two sizes, 2nb = 32 (Si8) and 64 (Si16),
// on one fixed random pencil.
func BenchmarkGenEigChol(b *testing.B) {
	for _, n := range []int{32, 64} {
		rng := rand.New(rand.NewSource(11))
		a, s := randHermitian(rng, n), randHPD(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := GenEigChol(a, s, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
