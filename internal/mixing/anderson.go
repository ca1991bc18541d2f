// Package mixing implements Anderson mixing (Anderson 1965, ref [2] of the
// paper) for the two fixed-point problems of the code: the PT-CN
// wavefunction equation (Alg. 1 line 7, one mixer per band with history up
// to 20 - the memory-hungry part that the paper stages through the 512 GB
// Summit node memory) and the ground-state density SCF.
package mixing

import (
	"fmt"
	"math/cmplx"

	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
)

// Anderson accelerates the fixed-point iteration x -> x + f(x) (f is the
// residual). After recording m previous (x_k, f_k) pairs it proposes
//
//	x_new = sum_k c_k (x_k + beta*f_k),  sum_k c_k = 1,
//
// with coefficients minimizing |sum_k c_k f_k|^2, solved through the
// (m+1) x (m+1) bordered normal equations - the small least squares
// problem of section 3.4 (at most 20 x 20).
type Anderson struct {
	maxHist int
	beta    float64
	xs, fs  [][]complex128
	// gram[i*maxHist+j] = <f_i|f_j> over the current history. Each Mix adds
	// one row (m inner products) and its conjugate column instead of
	// recomputing all m^2; dropping the oldest pair shifts it up and left.
	gram []complex128
	// free holds the history vectors Reset and the history cap released;
	// record reuses them, so a mixer kept across problems of one size stops
	// allocating once its history has been full. sys and rhs are the
	// bordered system's scratch.
	free     [][]complex128
	sys, rhs []complex128
}

// NewAnderson creates a mixer with history depth maxHist (the paper uses
// 20) and simple-mixing parameter beta.
func NewAnderson(maxHist int, beta float64) *Anderson {
	if maxHist < 1 {
		maxHist = 1
	}
	return &Anderson{maxHist: maxHist, beta: beta}
}

// Reset clears the history (new time step / new SCF problem) and keeps its
// vectors for the next one.
func (a *Anderson) Reset() {
	a.free = append(append(a.free, a.xs...), a.fs...)
	a.xs = a.xs[:0]
	a.fs = a.fs[:0]
	clear(a.gram)
}

// record returns a history copy of v in a recycled vector when one fits.
func (a *Anderson) record(v []complex128) []complex128 {
	var c []complex128
	if n := len(a.free); n > 0 && cap(a.free[n-1]) >= len(v) {
		c, a.free = a.free[n-1][:len(v)], a.free[:n-1]
	} else {
		c = make([]complex128, len(v))
	}
	copy(c, v)
	return c
}

// HistoryLen reports the current history depth.
func (a *Anderson) HistoryLen() int { return len(a.xs) }

// Mix records the pair (x, f) and returns the next iterate. The returned
// slice is freshly allocated; x and f are copied into the history.
func (a *Anderson) Mix(x, f []complex128) []complex128 {
	out := make([]complex128, len(x))
	a.MixInto(out, x, f)
	return out
}

// MixInto is Mix writing the next iterate into the caller's out, which may
// be x itself: x and f are copied into the history before out is written.
func (a *Anderson) MixInto(out, x, f []complex128) {
	if len(x) != len(f) || len(out) != len(x) {
		panic(fmt.Sprintf("mixing: out, x and f lengths differ: %d, %d, %d", len(out), len(x), len(f)))
	}
	h := a.maxHist
	if a.gram == nil {
		a.gram = make([]complex128, h*h)
		a.sys = make([]complex128, (h+1)*(h+1))
		a.rhs = make([]complex128, h+1)
	}
	if len(a.xs) == h {
		a.free = append(a.free, a.xs[0], a.fs[0])
		a.xs = a.xs[:copy(a.xs, a.xs[1:])]
		a.fs = a.fs[:copy(a.fs, a.fs[1:])]
		for i := 0; i < h-1; i++ {
			copy(a.gram[i*h:i*h+h-1], a.gram[(i+1)*h+1:(i+2)*h])
		}
	}
	fc := a.record(f)
	a.xs = append(a.xs, a.record(x))
	a.fs = append(a.fs, fc)
	m := len(a.xs)
	// Dot(b, a) is the exact conjugate of Dot(a, b) (the same products,
	// subtracted the other way round), so the column costs nothing and the
	// matrix is the one m^2 inner products would give.
	for j := 0; j < m; j++ {
		v := linalg.Dot(fc, a.fs[j])
		a.gram[j*h+m-1] = cmplx.Conj(v)
		a.gram[(m-1)*h+j] = v // last, so the diagonal keeps Dot's own +0i
	}
	if m == 1 {
		for i := range out {
			out[i] = x[i] + complex(a.beta, 0)*f[i]
		}
		return
	}
	clear(out)
	c := a.coefficients(m)
	for k := 0; k < m; k++ {
		ck := c[k]
		if ck == 0 {
			continue
		}
		xk, fk := a.xs[k], a.fs[k]
		b := complex(a.beta, 0)
		for i := range out {
			out[i] += ck * (xk[i] + b*fk[i])
		}
	}
}

// coefficients solves the bordered system
//
//	[ A   1 ] [c]   [0]
//	[ 1^H 0 ] [l] = [1]
//
// with A_ij = <f_i|f_j>, regularized for near-degenerate histories.
func (a *Anderson) coefficients(m int) []complex128 {
	n := m + 1
	sys, rhs := a.sys[:n*n], a.rhs[:n]
	clear(sys)
	clear(rhs)
	var trace float64
	for i := 0; i < m; i++ {
		copy(sys[i*n:i*n+m], a.gram[i*a.maxHist:])
		trace += real(sys[i*n+i])
	}
	// Tikhonov regularization keeps the system solvable when residuals
	// become linearly dependent near convergence.
	eps := 1e-12 * (trace/float64(m) + 1e-300)
	for i := 0; i < m; i++ {
		sys[i*n+i] += complex(eps, 0)
	}
	for i := 0; i < m; i++ {
		sys[i*n+m] = 1
		sys[m*n+i] = 1
	}
	rhs[m] = 1
	if err := linalg.SolveLinear(sys, rhs, n, 1); err != nil {
		// Degenerate history: fall back to plain mixing on the latest pair.
		c := make([]complex128, m)
		c[m-1] = 1
		return c
	}
	return rhs[:m]
}

// BandMixer runs one Anderson mixer per band, as the paper does for the
// PT-CN wavefunction fixed point: each band's least squares problem is
// independent and at most maxHist x maxHist.
type BandMixer struct {
	mixers []*Anderson
	ng     int
}

// NewBandMixer creates nb independent per-band mixers for bands of length ng.
func NewBandMixer(nb, ng, maxHist int, beta float64) *BandMixer {
	bm := &BandMixer{mixers: make([]*Anderson, nb), ng: ng}
	for i := range bm.mixers {
		bm.mixers[i] = NewAnderson(maxHist, beta)
	}
	return bm
}

// Mix applies per-band Anderson mixing to the band-major iterate x and
// residual f, returning the new iterate (band-major, freshly allocated).
func (bm *BandMixer) Mix(x, f []complex128) []complex128 {
	out := make([]complex128, len(x))
	bm.MixInto(out, x, f)
	return out
}

// MixInto is Mix writing the new iterate into the caller's out, which may
// be x itself. Bands mix in parallel.
func (bm *BandMixer) MixInto(out, x, f []complex128) {
	nb, ng := len(bm.mixers), bm.ng
	if len(out) != nb*ng || len(x) != nb*ng || len(f) != nb*ng {
		panic("mixing: BandMixer buffer size mismatch")
	}
	parallel.For(nb, func(i int) {
		bm.mixers[i].MixInto(out[i*ng:(i+1)*ng], x[i*ng:(i+1)*ng], f[i*ng:(i+1)*ng])
	})
}

// Reset clears all band histories.
func (bm *BandMixer) Reset() {
	for _, m := range bm.mixers {
		m.Reset()
	}
}

// RealMixer adapts Anderson mixing to real vectors (density SCF).
type RealMixer struct{ a *Anderson }

// NewRealMixer creates a real-vector Anderson mixer.
func NewRealMixer(maxHist int, beta float64) *RealMixer {
	return &RealMixer{a: NewAnderson(maxHist, beta)}
}

// Mix records (x, f) and returns the next iterate for real vectors.
func (r *RealMixer) Mix(x, f []float64) []float64 {
	cx := make([]complex128, len(x))
	cf := make([]complex128, len(f))
	for i := range x {
		cx[i] = complex(x[i], 0)
		cf[i] = complex(f[i], 0)
	}
	res := r.a.Mix(cx, cf)
	out := make([]float64, len(x))
	for i := range out {
		out[i] = real(res[i])
	}
	return out
}
