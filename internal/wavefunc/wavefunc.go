// Package wavefunc provides band-set utilities: construction of random
// initial orbitals, Cholesky-based orthonormalization (the Trsm
// orthogonalization of section 3.4), norms and fidelity measures between
// band sets.
package wavefunc

import (
	"fmt"
	"math"
	"math/rand"

	"ptdft/internal/grid"
	"ptdft/internal/linalg"
)

// Random returns nb orthonormal random bands (band-major sphere
// coefficients) seeded deterministically. Low-G components are favored so
// the eigensolver starts near the smooth subspace.
func Random(g *grid.Grid, nb int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	psi := make([]complex128, nb*g.NG)
	for i := 0; i < nb; i++ {
		for s := 0; s < g.NG; s++ {
			damp := 1.0 / (1.0 + g.G2[s])
			psi[i*g.NG+s] = complex(rng.NormFloat64()*damp, rng.NormFloat64()*damp)
		}
	}
	if _, err := Orthonormalize(psi, make([]complex128, nb*nb), nb, g.NG); err != nil {
		panic(fmt.Sprintf("wavefunc: random bands degenerate: %v", err))
	}
	return psi
}

// Orthonormalize makes the band set orthonormal in place via the overlap
// matrix, Cholesky factorization and triangular solve (section 3.4: the
// overlap is evaluated in the G-space layout, the Cholesky factor computed
// once, and the bands rotated by Trsm). The overlap is formed in the
// caller's nb x nb s, and the orthonormality error before the rotation,
// IdentityError of that overlap, is returned.
func Orthonormalize(psi, s []complex128, nb, ng int) (float64, error) {
	linalg.Gram(s, psi, nb, ng)
	oerr := IdentityError(s, nb)
	if err := linalg.CholeskyLower(s, nb); err != nil {
		return oerr, fmt.Errorf("wavefunc: overlap not positive definite: %w", err)
	}
	linalg.SolveLowerBands(s, psi, nb, ng)
	return oerr, nil
}

// OrthonormalityError returns max_ij |<psi_i|psi_j> - delta_ij|.
func OrthonormalityError(psi []complex128, nb, ng int) float64 {
	s := make([]complex128, nb*nb)
	linalg.Gram(s, psi, nb, ng)
	return IdentityError(s, nb)
}

// IdentityError returns max_ij |s_ij - delta_ij| of the nb x nb overlap s.
func IdentityError(s []complex128, nb int) float64 {
	var m float64
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			d := s[i*nb+j]
			if i == j {
				d -= 1
			}
			if a := math.Hypot(real(d), imag(d)); a > m {
				m = a
			}
		}
	}
	return m
}

// SubspaceFidelity measures how close two orthonormal band sets span the
// same subspace: (1/nb) * sum_ij |<a_i|b_j>|^2, which is 1 for identical
// spans and ~nb*ng^-1 for random ones. Gauge-invariant, so it is the right
// comparison between parallel-transport orbitals and Schroedinger orbitals.
func SubspaceFidelity(a, b []complex128, nb, ng int) float64 {
	s := make([]complex128, nb*nb)
	linalg.Overlap(s, a, b, nb, nb, ng)
	var f float64
	for _, v := range s {
		f += real(v)*real(v) + imag(v)*imag(v)
	}
	return f / float64(nb)
}

// Clone returns a deep copy of a band set.
func Clone(psi []complex128) []complex128 {
	return append([]complex128(nil), psi...)
}

// MaxDiff returns the largest coefficient-wise magnitude difference.
func MaxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if v := math.Hypot(real(d), imag(d)); v > m {
			m = v
		}
	}
	return m
}
