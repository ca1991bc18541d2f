// Package lanes defines the lane-blocked structure-of-arrays layout the
// FFT/Fock hot path computes in. A Slab stores n complex values as two
// parallel float64 arrays (split re/im) instead of interleaved complex128;
// every kernel below walks the arrays in fixed Width-wide blocks through
// *[Width]float64 views, so the compiler drops the bounds checks and the
// inner loops are straight-line float64 arithmetic with Width independent
// dependency chains (stock gc emits them scalar; the FFT butterflies and
// the exchange's pair loops have AVX2 twins in internal/fourier) - the
// plain-Go rendition of the SPMD-Go uniform/varying discipline
// (coefficients like twiddles and kernel values are "uniform": one scalar
// load serves all Width lanes; the data is "varying": one element per lane).
//
// Two layout conventions share the type:
//
//   - Grid slab: element i of an n-point field lives at Re[i]/Im[i]. This
//     is how real-space boxes and accumulators are stored in fock, dist,
//     hamiltonian and the potential assembly.
//   - Lane block: Width interleaved pencils of length n, element k of lane
//     l at Re[k*Width+l]. This is the FFT working layout - the butterfly
//     arithmetic is identical for all Width pencils, so the lane index is
//     the vector dimension.
//
// Remainders (n not a multiple of Width) are handled by scalar tail loops
// here; in the FFT passes a partial lane group runs through the same lane
// kernels with its unused lanes zero-filled (fourier/slab.go). No kernel
// ever requires padded lengths.
package lanes

// Width is the lane count: 8 float64 lanes = one 64-byte cache line per
// block, which is one AVX-512 zmm or two AVX2 ymm per array (Re and Im
// each). internal/fourier's amd64 kernels process a row as those two ymm.
const Width = 8

// Slab is n complex values in split re/im layout. The zero Slab is empty;
// a Slab is a pair of slice headers, so sub-views (Row) are allocation-free
// values.
type Slab struct {
	Re, Im []float64
}

// New allocates a zeroed n-element slab.
func New(n int) Slab {
	return Slab{Re: make([]float64, n), Im: make([]float64, n)}
}

// NewPtr allocates a slab and returns its address, for ScratchPool use
// (the pool wants a pointer type).
func NewPtr(n int) *Slab {
	s := New(n)
	return &s
}

// Len reports the element count.
func (s Slab) Len() int { return len(s.Re) }

// Row views elements [i*n, (i+1)*n) - band i of a band-major slab.
func (s Slab) Row(i, n int) Slab {
	return Slab{Re: s.Re[i*n : (i+1)*n], Im: s.Im[i*n : (i+1)*n]}
}

// Slice views elements [lo, hi).
func (s Slab) Slice(lo, hi int) Slab {
	return Slab{Re: s.Re[lo:hi], Im: s.Im[lo:hi]}
}

// Zero clears the slab.
func (s Slab) Zero() {
	for i := range s.Re {
		s.Re[i] = 0
	}
	for i := range s.Im {
		s.Im[i] = 0
	}
}

// Pack converts interleaved complex128 values into the slab (dst must have
// len(src) elements).
func Pack(dst Slab, src []complex128) {
	_ = dst.Re[len(src)-1]
	_ = dst.Im[len(src)-1]
	for i, v := range src {
		dst.Re[i] = real(v)
		dst.Im[i] = imag(v)
	}
}

// Unpack converts the slab back to interleaved complex128 values.
func Unpack(dst []complex128, src Slab) {
	re, im := src.Re, src.Im
	_ = re[len(dst)-1]
	_ = im[len(dst)-1]
	for i := range dst {
		dst[i] = complex(re[i], im[i])
	}
}

// DotRe returns sum_i Re(conj(a_i) b_i) = sum a.Re*b.Re + a.Im*b.Im - the
// inner product the exchange energy accumulates. Width partial sums
// accumulate per lane and fold once at the end (the cross-lane reduction of
// the SPMD discipline), which also fixes the summation order independent of
// how the loop is blocked.
func DotRe(a, b Slab) float64 {
	var acc [Width]float64
	n := len(a.Re)
	_ = b.Re[n-1]
	_ = b.Im[n-1]
	i := 0
	for ; i+Width <= n; i += Width {
		ar := (*[Width]float64)(a.Re[i:])
		ai := (*[Width]float64)(a.Im[i:])
		br := (*[Width]float64)(b.Re[i:])
		bi := (*[Width]float64)(b.Im[i:])
		for l := 0; l < Width; l++ {
			acc[l] += ar[l]*br[l] + ai[l]*bi[l]
		}
	}
	var tail float64
	for ; i < n; i++ {
		tail += a.Re[i]*b.Re[i] + a.Im[i]*b.Im[i]
	}
	return ReduceAdd(&acc) + tail
}

// ReduceAdd folds a per-lane accumulator to one scalar (tree order, so the
// result does not depend on Width beyond the fixed pairing).
func ReduceAdd(acc *[Width]float64) float64 {
	s01 := acc[0] + acc[1]
	s23 := acc[2] + acc[3]
	s45 := acc[4] + acc[5]
	s67 := acc[6] + acc[7]
	return (s01 + s23) + (s45 + s67)
}
