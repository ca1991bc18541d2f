// Serial adaptively compressed exchange (ACE): the rank-nb projector
// compression of the Fock operator (Lin, JCTC 2016; combined with the PT
// gauge in Jia & Lin, arXiv:1809.09609 - refs [24] and [22] of the paper),
// built and applied on the full band-major layout (nb x NG sphere
// coefficients, no distribution - the band-slab/G-slab split of this
// construction lives in internal/dist). It reproduces section 1's
// PT-vs-PT+ACE trade-off at laptop scale: construction costs one exact
// exchange application plus an nb x nb Cholesky, after which each
// application is nb dot products instead of nb Poisson solves - the
// operator the hamiltonian package rebuilds at every exchange refresh.
package fock

import (
	"fmt"

	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
)

// ACE is the adaptively compressed exchange operator (Lin, JCTC 2016;
// combined with the PT gauge in Jia & Lin, CPC 2019 - refs [24] and [22]
// of the paper). It compresses V_X into a rank-nb projector
//
//	V_ACE = -Xi Xi^H,  Xi = (V_X Phi) L^{-H},  -Phi^H V_X Phi = L L^H,
//
// which reproduces V_X exactly on the span of Phi and costs only nb dot
// products per application instead of nb FFT pairs. The paper found that
// on GPUs the plain PT formulation outperforms PT+ACE (section 1); the
// ablation benchmark quantifies that trade-off in this reproduction.
type ACE struct {
	xi []complex128 // band-major nb x NG projector vectors
	nb int
	ng int
}

// NewACE builds the compressed operator from a Fock operator and the
// reference orbitals phi (band-major sphere coefficients, nb x NG).
// The construction performs the pairwise FFT work once; when phi is the
// operator's own reference set (the usual case) Operator.Apply routes it
// through the symmetry-halved ApplyToReference, nb(nb+1)/2 Poisson solves
// instead of nb^2.
func NewACE(op *Operator, phi []complex128, nb int) (*ACE, error) {
	ng := op.g.NG
	if len(phi) != nb*ng {
		return nil, fmt.Errorf("fock: NewACE size mismatch: %d != %d x %d", len(phi), nb, ng)
	}
	w := make([]complex128, nb*ng)
	op.Apply(w, phi, nb)
	m := make([]complex128, nb*nb)
	linalg.Overlap(m, phi, w, nb, nb, ng)
	// -M must be Hermitian positive definite (V_X is negative definite on
	// the occupied span for a screened kernel).
	for i := range m {
		m[i] = -m[i]
	}
	if err := linalg.CholeskyLower(m, nb); err != nil {
		return nil, fmt.Errorf("fock: ACE overlap not negative definite: %w", err)
	}
	linalg.SolveLowerBands(m, w, nb, ng)
	return &ACE{xi: w, nb: nb, ng: ng}, nil
}

// Apply accumulates V_ACE psi = -Xi (Xi^H psi) into dst for nbands
// sphere-coefficient bands (band-major).
func (a *ACE) Apply(dst, src []complex128, nbands int) {
	if len(dst) != nbands*a.ng || len(src) != nbands*a.ng {
		panic("fock: ACE.Apply buffer size mismatch")
	}
	parallel.For(nbands, func(j int) {
		s := src[j*a.ng : (j+1)*a.ng]
		d := dst[j*a.ng : (j+1)*a.ng]
		for k := 0; k < a.nb; k++ {
			xi := a.xi[k*a.ng : (k+1)*a.ng]
			c := -linalg.Dot(xi, s)
			if c == 0 {
				continue
			}
			for g := range d {
				d[g] += c * xi[g]
			}
		}
	})
}
