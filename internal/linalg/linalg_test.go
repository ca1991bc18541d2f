package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestHermEigDiagonalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 6, 10, 20} {
		a := randHermitian(rng, n)
		evals, v, err := HermEig(a, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Ascending order.
		for k := 1; k < n; k++ {
			if evals[k] < evals[k-1] {
				t.Fatalf("n=%d: eigenvalues not sorted", n)
			}
		}
		// A v_k = lambda_k v_k and orthonormality.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				var av complex128
				for j := 0; j < n; j++ {
					av += a[i*n+j] * v[j*n+k]
				}
				if cmplx.Abs(av-complex(evals[k], 0)*v[i*n+k]) > 1e-8*float64(n) {
					t.Fatalf("n=%d: residual too large for eigenpair %d", n, k)
				}
			}
			for k2 := 0; k2 < n; k2++ {
				var d complex128
				for i := 0; i < n; i++ {
					d += cmplx.Conj(v[i*n+k]) * v[i*n+k2]
				}
				want := complex128(0)
				if k == k2 {
					want = 1
				}
				if cmplx.Abs(d-want) > 1e-9*float64(n) {
					t.Fatalf("n=%d: eigenvectors not orthonormal (%d,%d)", n, k, k2)
				}
			}
		}
	}
}

func TestHermEigTraceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 4 + int(seed%5+5)%5
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
		return math.Abs(tr-se) < 1e-9*float64(n)*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGenEigChol(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 7
	a := randHermitian(rng, n)
	b := randHPD(rng, n)
	evals, x, err := GenEigChol(a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		// Check A x_k = lambda_k B x_k.
		for i := 0; i < n; i++ {
			var ax, bx complex128
			for j := 0; j < n; j++ {
				ax += a[i*n+j] * x[j*n+k]
				bx += b[i*n+j] * x[j*n+k]
			}
			if cmplx.Abs(ax-complex(evals[k], 0)*bx) > 1e-7 {
				t.Fatalf("generalized eigenpair %d residual too large", k)
			}
		}
		// B-orthonormality.
		for k2 := 0; k2 < n; k2++ {
			var d complex128
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d += cmplx.Conj(x[i*n+k]) * b[i*n+j] * x[j*n+k2]
				}
			}
			want := complex128(0)
			if k == k2 {
				want = 1
			}
			if cmplx.Abs(d-want) > 1e-8 {
				t.Fatalf("not B-orthonormal at (%d,%d): %v", k, k2, d)
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
