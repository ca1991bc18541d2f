// Package linalg provides the dense complex linear algebra used by the
// plane-wave code: band overlap matrices (the Psi*H*Psi products of the
// PT-CN residual), subspace rotations, Cholesky factorization and triangular
// solves for orthogonalization, a Hermitian Jacobi eigensolver for subspace
// diagonalization, and small dense solvers for the Anderson mixing least
// squares problems. It is the CUBLAS/cuSOLVER stand-in of the reproduction.
//
// Matrices are stored row-major in flat []complex128 slices with explicit
// dimensions. Band sets ("wavefunction blocks") are stored band-major:
// band i occupies elements [i*ng, (i+1)*ng).
//
// On amd64 hosts with AVX2 (hostcpu.AVX2) the band-block products Overlap
// and ApplyMatrix run on two assembly kernels (linalg_amd64.s) that take
// the Go loops' operations in the Go loops' order, with no FMA, so both
// paths give the same bits; the Go loops are the portable path and the
// oracle, and write every product float64(...) so that no build fuses them.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"ptdft/internal/parallel"
)

// Overlap computes the na x nb overlap matrix s[i*nb+j] = <a_i | b_j> =
// sum_g conj(a[i*ng+g]) * b[j*ng+g]. This is the S = Psi^* (H Psi) kernel of
// Algorithm 3 in the paper. s must have length na*nb. The rows go in blocks
// of four, the vector kernel's block height, one block per worker task.
func Overlap(s, a, b []complex128, na, nb, ng int) {
	if len(s) != na*nb || len(a) != na*ng || len(b) != nb*ng {
		panic(fmt.Sprintf("linalg: Overlap dims mismatch na=%d nb=%d ng=%d", na, nb, ng))
	}
	if parallel.MaxWorkers() <= 1 {
		// Inline loop: no closure, no goroutines (zero-alloc hot path).
		for i := 0; i < na; i += 4 {
			overlapRows(s, a, b, i, na, nb, ng)
		}
		return
	}
	parallel.For((na+3)/4, func(k int) {
		overlapRows(s, a, b, 4*k, na, nb, ng)
	})
}

// overlapRows fills rows [i, min(i+4, na)) of the overlap matrix: the
// vector kernel takes whole 4x4 blocks where it runs, overlapRow the rest.
func overlapRows(s, a, b []complex128, i, na, nb, ng int) {
	j0 := 0
	if na-i >= 4 {
		j0 = overlapVec(s, a, b, i, nb, ng)
	}
	for r := i; r < min(i+4, na); r++ {
		overlapRow(s, a, b, r, j0, nb, ng)
	}
}

// overlapRow fills columns [j0, nb) of row i of the overlap matrix. Each
// conj(x)*y is accumulated in parts to stay in registers, every product
// float64(...), which no build may fuse into the add that follows: the
// vector kernels do not fuse either, so the Go loops round where they do on
// every GOARCH (gc fuses a plain a*b+c on arm64 and similar targets).
func overlapRow(s, a, b []complex128, i, j0, nb, ng int) {
	ai := a[i*ng : (i+1)*ng]
	for j := j0; j < nb; j++ {
		bj := b[j*ng : (j+1)*ng]
		var re, im float64
		for g := range ai {
			x, y := ai[g], bj[g]
			re += float64(real(x)*real(y)) + float64(imag(x)*imag(y))
			im += float64(real(x)*imag(y)) - float64(imag(x)*real(y))
		}
		s[i*nb+j] = complex(re, im)
	}
}

// ApplyMatrix computes the band rotation dst_j = sum_i u[i][j] * src_i,
// i.e. dst = U^T applied across bands, with u row-major nIn x nOut.
// This is the Psi <- Psi*S rotation of Algorithm 3 expressed band-major.
// dst must not alias src.
func ApplyMatrix(dst, src, u []complex128, nOut, nIn, ng int) {
	if len(dst) != nOut*ng || len(src) != nIn*ng || len(u) != nIn*nOut {
		panic(fmt.Sprintf("linalg: ApplyMatrix dims mismatch nOut=%d nIn=%d ng=%d", nOut, nIn, ng))
	}
	if parallel.MaxWorkers() <= 1 {
		// Inline loop: no closure, no goroutines (zero-alloc hot path).
		for j := 0; j < nOut; j++ {
			applyMatrixCol(dst, src, u, j, nOut, nIn, ng)
		}
		return
	}
	parallel.For(nOut, func(j int) {
		applyMatrixCol(dst, src, u, j, nOut, nIn, ng)
	})
}

// applyMatrixCol computes output band j of the rotation: the vector kernel
// takes whole chunks of eight points where it runs, the Go loop the rest.
// Each point sums its input bands in ascending order, skipping zero
// coefficients, with Go's complex product spelled out in parts so that no
// build fuses it.
func applyMatrixCol(dst, src, u []complex128, j, nOut, nIn, ng int) {
	lo := applyMatrixVec(dst, src, u, j, nOut, nIn, ng)
	dj := dst[j*ng+lo : (j+1)*ng]
	clear(dj)
	for i := 0; i < nIn; i++ {
		c := u[i*nOut+j]
		if c == 0 {
			continue
		}
		cr, ci := real(c), imag(c)
		si := src[i*ng+lo : (i+1)*ng]
		si = si[:len(dj)]
		for g, x := range si {
			dj[g] += complex(float64(cr*real(x))-float64(ci*imag(x)), float64(cr*imag(x))+float64(ci*real(x)))
		}
	}
}

// CholeskyLower factors the Hermitian positive definite n x n matrix a
// in place into its lower Cholesky factor L (a = L L^H); entries above the
// diagonal are zeroed. It returns an error if a is not positive definite.
func CholeskyLower(a []complex128, n int) error {
	if len(a) != n*n {
		panic("linalg: CholeskyLower dims mismatch")
	}
	for j := 0; j < n; j++ {
		d := real(a[j*n+j])
		for k := 0; k < j; k++ {
			l := a[j*n+k]
			d -= real(l)*real(l) + imag(l)*imag(l)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		a[j*n+j] = complex(ljj, 0)
		for i := j + 1; i < n; i++ {
			v := a[i*n+j]
			for k := 0; k < j; k++ {
				v -= a[i*n+k] * cmplx.Conj(a[j*n+k])
			}
			a[i*n+j] = v / complex(ljj, 0)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*n+j] = 0
		}
	}
	return nil
}

// SolveLowerBands overwrites the band set x (n bands x ng) with
// conj(L)^{-1} x by forward substitution across bands. When L is the lower
// Cholesky factor of the overlap matrix S[i][j] = <x_i|x_j>, this
// orthonormalizes the band set: the Gram matrix of band-major rows is
// conj(S), so the conjugated factor is the one that whitens it. This is the
// Trsm-based orthogonalization of section 3.4.
func SolveLowerBands(l, x []complex128, n, ng int) {
	if len(l) != n*n || len(x) != n*ng {
		panic("linalg: SolveLowerBands dims mismatch")
	}
	if parallel.MaxWorkers() <= 1 {
		// Inline loop: no closure, no goroutines (zero-alloc hot path).
		solveLowerBandsRange(l, x, n, ng, 0, ng)
		return
	}
	// Parallelize over G-space blocks; the band recurrence is sequential.
	parallel.ForBlock(ng, func(lo, hi int) {
		solveLowerBandsRange(l, x, n, ng, lo, hi)
	})
}

// solveLowerBandsRange runs the forward substitution on G columns [lo, hi).
func solveLowerBandsRange(l, x []complex128, n, ng, lo, hi int) {
	for i := 0; i < n; i++ {
		xi := x[i*ng : (i+1)*ng]
		for j := 0; j < i; j++ {
			c := cmplx.Conj(l[i*n+j])
			if c == 0 {
				continue
			}
			xj := x[j*ng : (j+1)*ng]
			for g := lo; g < hi; g++ {
				xi[g] -= c * xj[g]
			}
		}
		inv := 1 / complex(real(l[i*n+i]), 0)
		for g := lo; g < hi; g++ {
			xi[g] *= inv
		}
	}
}

// SolveLinear solves a x = b in place for k right-hand sides using Gaussian
// elimination with partial pivoting. a is n x n and is destroyed; b is
// n x k row-major and is overwritten with the solution.
func SolveLinear(a, b []complex128, n, k int) error {
	if len(a) != n*n || len(b) != n*k {
		panic("linalg: SolveLinear dims mismatch")
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pmax := col, cmplx.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if m := cmplx.Abs(a[r*n+col]); m > pmax {
				piv, pmax = r, m
			}
		}
		if pmax == 0 {
			return errors.New("linalg: singular matrix in SolveLinear")
		}
		if piv != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[piv*n+c] = a[piv*n+c], a[col*n+c]
			}
			for c := 0; c < k; c++ {
				b[col*k+c], b[piv*k+c] = b[piv*k+c], b[col*k+c]
			}
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for c := col + 1; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			for c := 0; c < k; c++ {
				b[r*k+c] -= f * b[col*k+c]
			}
		}
	}
	for col := n - 1; col >= 0; col-- {
		inv := 1 / a[col*n+col]
		for c := 0; c < k; c++ {
			v := b[col*k+c]
			for r := col + 1; r < n; r++ {
				v -= a[col*n+r] * b[r*k+c]
			}
			b[col*k+c] = v * inv
		}
	}
	return nil
}

// HermEig diagonalizes the Hermitian n x n matrix a (not modified) with the
// cyclic Jacobi method. It returns eigenvalues in ascending order and the
// row-major matrix v whose column k (v[i*n+k]) is the unit eigenvector for
// eigenvalue k. Intended for the small subspace problems of the eigensolver
// and for analysis; O(n^3) per sweep.
func HermEig(a []complex128, n int) ([]float64, []complex128, error) {
	if len(a) != n*n {
		panic("linalg: HermEig dims mismatch")
	}
	w := make([]complex128, n*n)
	copy(w, a)
	v := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	var norm float64
	for i := range w {
		norm += real(w[i])*real(w[i]) + imag(w[i])*imag(w[i])
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return make([]float64, n), v, nil
	}
	tol := 1e-14 * norm
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += cmplx.Abs(w[p*n+q])
			}
		}
		if off < tol {
			evals, evecs := sortEig(w, v, n)
			return evals, evecs, nil
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				beta := w[p*n+q]
				ab := cmplx.Abs(beta)
				if ab < tol/float64(n*n) {
					continue
				}
				alpha := real(w[p*n+p])
				gamma := real(w[q*n+q])
				// Phase of the off-diagonal element.
				phase := beta / complex(ab, 0)
				var theta float64
				if alpha == gamma {
					theta = math.Pi / 4
				} else {
					theta = 0.5 * math.Atan2(2*ab, alpha-gamma)
				}
				c := math.Cos(theta)
				s := complex(math.Sin(theta), 0) * cmplx.Conj(phase)
				// Columns p,q transform by U = [[c, -conj(s)], [s, c]].
				for i := 0; i < n; i++ {
					wip, wiq := w[i*n+p], w[i*n+q]
					w[i*n+p] = complex(c, 0)*wip + s*wiq
					w[i*n+q] = -cmplx.Conj(s)*wip + complex(c, 0)*wiq
				}
				for i := 0; i < n; i++ {
					wpi, wqi := w[p*n+i], w[q*n+i]
					w[p*n+i] = complex(c, 0)*wpi + cmplx.Conj(s)*wqi
					w[q*n+i] = -s*wpi + complex(c, 0)*wqi
				}
				for i := 0; i < n; i++ {
					vip, viq := v[i*n+p], v[i*n+q]
					v[i*n+p] = complex(c, 0)*vip + s*viq
					v[i*n+q] = -cmplx.Conj(s)*vip + complex(c, 0)*viq
				}
				// Clean tiny Hermiticity drift on the diagonal.
				w[p*n+p] = complex(real(w[p*n+p]), 0)
				w[q*n+q] = complex(real(w[q*n+q]), 0)
			}
		}
	}
	return nil, nil, errors.New("linalg: Jacobi eigensolver did not converge")
}

func sortEig(w, v []complex128, n int) ([]float64, []complex128) {
	evals := make([]float64, n)
	order := make([]int, n)
	for i := 0; i < n; i++ {
		evals[i] = real(w[i*n+i])
		order[i] = i
	}
	// Insertion sort: n is small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && evals[order[j]] < evals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sorted := make([]float64, n)
	vs := make([]complex128, n*n)
	for k, idx := range order {
		sorted[k] = evals[idx]
		for i := 0; i < n; i++ {
			vs[i*n+k] = v[i*n+idx]
		}
	}
	return sorted, vs
}

// GenEigChol solves the generalized Hermitian eigenproblem A x = lambda B x
// with B positive definite, via B = L L^H, Atilde = L^{-1} A L^{-H}.
// a and b are not modified. Eigenvectors are returned B-orthonormal as
// columns of the row-major matrix x (x[i*n+k] is component i of vector k).
func GenEigChol(a, b []complex128, n int) ([]float64, []complex128, error) {
	if len(a) != n*n || len(b) != n*n {
		panic("linalg: GenEigChol dims mismatch")
	}
	l := make([]complex128, n*n)
	copy(l, b)
	if err := CholeskyLower(l, n); err != nil {
		return nil, nil, err
	}
	// at = L^{-1} A L^{-H}: first Y = L^{-1} A (forward substitution on
	// rows), then at = Y L^{-H} which is (L^{-1} Y^H)^H column-wise.
	y := make([]complex128, n*n)
	copy(y, a)
	forwardSubstRows(l, y, n)
	// Z = L^{-1} * Y^H, then at = Z^H.
	z := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			z[i*n+j] = cmplx.Conj(y[j*n+i])
		}
	}
	forwardSubstRows(l, z, n)
	at := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			at[i*n+j] = cmplx.Conj(z[j*n+i])
		}
	}
	evals, yv, err := HermEig(at, n)
	if err != nil {
		return nil, nil, err
	}
	// x = L^{-H} y: back substitution on each column.
	x := backSubstHCols(l, yv, n)
	return evals, x, nil
}

// forwardSubstRows overwrites m (n x n row-major) with L^{-1} m.
func forwardSubstRows(l, m []complex128, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c := l[i*n+j]
			if c == 0 {
				continue
			}
			for col := 0; col < n; col++ {
				m[i*n+col] -= c * m[j*n+col]
			}
		}
		inv := 1 / l[i*n+i]
		for col := 0; col < n; col++ {
			m[i*n+col] *= inv
		}
	}
}

// backSubstHCols returns L^{-H} m where m columns are vectors.
func backSubstHCols(l, m []complex128, n int) []complex128 {
	x := make([]complex128, n*n)
	copy(x, m)
	// Solve L^H x = m: back substitution, row i depends on rows > i.
	for i := n - 1; i >= 0; i-- {
		for col := 0; col < n; col++ {
			v := x[i*n+col]
			for j := i + 1; j < n; j++ {
				v -= cmplx.Conj(l[j*n+i]) * x[j*n+col]
			}
			x[i*n+col] = v / complex(real(l[i*n+i]), 0)
		}
	}
	return x
}

// Dot returns <a|b> = sum conj(a_i) b_i, summed as overlapRow sums.
func Dot(a, b []complex128) complex128 {
	var re, im float64
	for i := range a {
		x, y := a[i], b[i]
		re += float64(real(x)*real(y)) + float64(imag(x)*imag(y))
		im += float64(real(x)*imag(y)) - float64(imag(x)*real(y))
	}
	return complex(re, im)
}
