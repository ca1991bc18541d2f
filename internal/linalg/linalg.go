// Package linalg provides the dense complex linear algebra used by the
// plane-wave code: band overlap matrices (the Psi*H*Psi products of the
// PT-CN residual), subspace rotations, Cholesky factorization and triangular
// solves for orthogonalization, a Hermitian eigensolver (Householder
// tridiagonalization and implicit QL, the zheev recipe) for the
// Rayleigh-Ritz pencils of the ground state, and small dense solvers for the
// Anderson mixing least squares problems. It is the CUBLAS/cuSOLVER
// stand-in of the reproduction.
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

// HermEig diagonalizes the Hermitian n x n matrix a (not modified; only
// its lower triangle and the real part of its diagonal are read) the way
// LAPACK's zheev does: Householder reduction to a tridiagonal T = Q^H A Q,
// a diagonal unitary D that makes T's sub-diagonal real, implicit QL on
// that real tridiagonal (tql2) giving its eigenvectors Z, and V = Q D Z.
// It returns the eigenvalues in ascending order and the row-major v whose
// column k (v[i*n+k]) is the unit eigenvector for eigenvalue k, or an error
// for a non-finite matrix or a QL iteration that does not converge. It is
// serial, so its bits do not depend on the worker count. O(n^3).
func HermEig(a []complex128, n int) ([]float64, []complex128, error) {
	if len(a) != n*n {
		panic("linalg: HermEig dims mismatch")
	}
	w := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			x := a[i*n+j]
			if cmplx.IsNaN(x) || cmplx.IsInf(x) {
				return nil, nil, fmt.Errorf("linalg: HermEig: non-finite element (%d,%d) = %v", i, j, x)
			}
			w[i*n+j], w[j*n+i] = x, cmplx.Conj(x)
		}
		w[i*n+i] = complex(real(w[i*n+i]), 0)
	}
	d, e, h := tridiagonalize(w, n)
	off := make([]float64, n)
	for k, x := range e {
		off[k] = cmplx.Abs(x)
	}
	z, err := tql2(d, off)
	if err != nil {
		return nil, nil, err
	}
	// D Z with delta_0 = 1 and delta_{i+1} = delta_i e_i/|e_i|, so that
	// (D^H T D)[i+1][i] = |e_i|; then Q = P_0 ... P_{n-2}, P_{n-2} first.
	v := make([]complex128, n*n)
	delta := complex128(1)
	for i := 0; i < n; i++ {
		if i > 0 && e[i-1] != 0 {
			delta *= e[i-1] / complex(cmplx.Abs(e[i-1]), 0)
		}
		for k := 0; k < n; k++ {
			v[i*n+k] = delta * complex(z[k*n+i], 0)
		}
	}
	s := make([]complex128, n)
	for k := n - 2; k >= 0; k-- {
		if h[k] == 0 {
			continue
		}
		u := w[k*n+k+1 : (k+1)*n]
		clear(s)
		for i, ui := range u {
			for j, x := range v[(k+1+i)*n : (k+2+i)*n] {
				s[j] += cmplx.Conj(ui) * x
			}
		}
		for j := range s {
			s[j] /= complex(h[k], 0)
		}
		for i, ui := range u {
			for j := range s {
				v[(k+1+i)*n+j] -= ui * s[j]
			}
		}
	}
	return d, v, nil
}

// tridiagonalize reduces the Hermitian w (n x n, both triangles held) in
// place to T = Q^H W Q, Q = P_0 ... P_{n-2}. The reflector P_k = I - u u^H
// / h[k] acts on indices k+1..n-1, zeroes column k below the sub-diagonal,
// and is left in row k of w (u_i at w[k*n+k+1+i]); a column already zero
// there takes none (h[k] = 0). It returns T's diagonal d and complex
// sub-diagonal e (e[k] = T[k+1][k], e[n-1] = 0).
func tridiagonalize(w []complex128, n int) (d []float64, e []complex128, h []float64) {
	d, e, h = make([]float64, n), make([]complex128, n), make([]float64, n)
	q := make([]complex128, n)
	for k := 0; k < n-1; k++ {
		u := w[k*n+k+1 : (k+1)*n] // column k below the diagonal, conjugated
		var sigma float64
		for i, x := range u {
			u[i] = cmplx.Conj(x)
			if i > 0 {
				sigma += real(x)*real(x) + imag(x)*imag(x)
			}
		}
		if e[k] = u[0]; sigma == 0 {
			continue
		}
		// u = x + phase*r e_0 with phase = x_0/|x_0| adds without
		// cancellation; P_k x = -phase*r e_0 and u^H x = h = r(r + |x_0|).
		aa := cmplx.Abs(u[0])
		r := math.Sqrt(aa*aa + sigma)
		phase := complex128(1)
		if aa != 0 {
			phase = u[0] / complex(aa, 0)
		}
		u[0] += phase * complex(r, 0)
		e[k] = -phase * complex(r, 0)
		h[k] = r * (r + aa)
		// W22 <- P_k W22 P_k = W22 - u q^H - q u^H with p = W22 u / h and
		// q = p - (u^H p / 2h) u.
		var up float64
		for i := range u {
			var acc complex128
			for j, x := range w[(k+1+i)*n+k+1 : (k+2+i)*n] {
				acc += x * u[j]
			}
			q[i] = acc / complex(h[k], 0)
			up += real(cmplx.Conj(u[i]) * q[i])
		}
		for i := range u {
			q[i] -= complex(up/(2*h[k]), 0) * u[i]
		}
		for i, ui := range u {
			row := w[(k+1+i)*n+k+1 : (k+2+i)*n]
			for j := range row {
				row[j] -= ui*cmplx.Conj(q[j]) + q[i]*cmplx.Conj(u[j])
			}
		}
	}
	for k := range d {
		d[k] = real(w[k*n+k])
	}
	return d, e, h
}

// tql2 diagonalizes the real symmetric tridiagonal with diagonal d and
// sub-diagonal e (e[k] couples k and k+1, e[n-1] = 0; destroyed) by
// implicit QL with Wilkinson shifts (EISPACK tql2, as in JAMA). d becomes
// the eigenvalues in ascending order; row k of the returned n x n z is the
// unit eigenvector for d[k]. It fails after 30n QL sweeps (LAPACK steqr).
func tql2(d, e []float64) ([]float64, error) {
	const eps = 0x1p-52
	n := len(d)
	z := make([]float64, n*n)
	for i := 0; i < n; i++ {
		z[i*n+i] = 1
	}
	var f, tst1 float64
	sweeps := 0
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for m > l && math.Abs(e[l]) > eps*tst1 {
			if sweeps++; sweeps > 30*n {
				return nil, fmt.Errorf("linalg: HermEig: QL iteration did not converge at eigenvalue %d", l)
			}
			// Shift from the leading 2x2 block, then one sweep from m up to l.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Copysign(math.Hypot(p, 1), p)
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1, hs := d[l+1], g-d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= hs
			}
			f += hs
			p = d[m]
			c, c2, c3, el1 := 1.0, 1.0, 1.0, e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g, hs = c*e[i], c*p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s, c = e[i]/r, p/r
				p = c*d[i] - s*g
				d[i+1] = hs + s*(c*g+s*d[i])
				zi, zi1 := z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n]
				for k, t := range zi1 {
					zi1[k] = s*zi[k] + c*t
					zi[k] = c*zi[k] - s*t
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l], d[l] = s*p, c*p
		}
		d[l] += f
		e[l] = 0
	}
	for i := 0; i < n-1; i++ { // selection sort, rows of z along
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		d[i], d[k] = d[k], d[i]
		for j := 0; j < n; j++ {
			z[i*n+j], z[k*n+j] = z[k*n+j], z[i*n+j]
		}
	}
	return z, nil
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
	// Atilde = L^{-1} Y^H with Y = L^{-1} A: Y^H = A L^{-H}, A Hermitian.
	y := make([]complex128, n*n)
	copy(y, a)
	forwardSubstRows(l, y, n)
	at := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			at[i*n+j] = cmplx.Conj(y[j*n+i])
		}
	}
	forwardSubstRows(l, at, n)
	evals, x, err := HermEig(at, n)
	if err != nil {
		return nil, nil, err
	}
	backSubstHCols(l, x, n)
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

// backSubstHCols overwrites x, whose columns are vectors, with L^{-H} x.
func backSubstHCols(l, x []complex128, n int) {
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
