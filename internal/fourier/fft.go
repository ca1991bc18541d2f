// Package fourier implements the complex discrete Fourier transforms of the
// plane-wave machinery: mixed-radix Cooley-Tukey over a closed set of
// lengths, those whose prime factors are at most 7 (the sizes NextFast
// picks), with a dedicated butterfly for every radix in {2, 3, 4, 5, 7},
// under 3D plans whose axis passes each transform lanes.Width pencils at
// once in the split re/im layout of internal/lanes. It is the CUFFT
// stand-in of the reproduction: the Fock exchange operator performs all of
// its N^2 Poisson-like solves through these plans.
//
// There is one implementation. fft.go plans a length (factorization,
// twiddle tables, the digit-reversal order perm), fftlanes.go transforms a
// lane block in place with one stage loop and no recursion, slab.go runs
// the 3D passes - whose gathers read element perm[k] into row k, so the
// permutation costs no pass of its own - their fused Poisson form over
// grid slabs and the exchange's pair-lane contraction, and fft3.go holds
// the one adapter that
// lets a []complex128 caller (setup code, the MD forces) reach them.
//
// Conventions: a forward transform computes X[k] = sum_j x[j]
// exp(-2*pi*i*j*k/N); the Raw entry points apply no normalization in either
// direction and ApplySerialWS carries 1/N on the inverse.
//
// Memory discipline: NewPlan precomputes every table the passes read (perm
// and one dense twiddle table per stage, so the hot loops index
// sequentially with no modular arithmetic); a 1D plan needs no scratch of
// its own, and callers either hold an explicit Workspace3 or check one out
// of the 3D plan's pool - either way the steady-state transform performs
// zero heap allocations.
package fourier

import (
	"fmt"
	"math"
)

// maxRadix is the largest prime with a butterfly of its own; NewPlan
// rejects a length with any larger prime factor.
const maxRadix = 7

// stage holds the precomputed combine tables for one level of the
// decimation-in-time factorization: a length-n_l twiddle table indexed q*m+k
// (replacing the (q*k*step) mod N lookups of a table-free implementation)
// and the order-r roots of unity for the cross-output butterfly.
//
// The tables are split re/im, the uniform-coefficient layout of the lane
// butterflies (internal/lanes): one scalar load serves a whole lane group.
// The inverse tables are the conjugates of the forward ones, so the two
// directions share the real half and differ in the imaginary one.
type stage struct {
	r, m int
	// tw[q*m+k] = exp(∓2*pi*i*q*k*step/N), len r*m.
	twRe, twFim, twIim []float64
	// root[q] = exp(∓2*pi*i*q/r), len r.
	rootRe, rootFim, rootIim []float64
}

// Plan holds precomputed twiddle tables for a 1D transform of fixed length.
// A Plan is immutable after creation and safe for concurrent use; it
// transforms a lane block in place and needs no scratch of its own.
type Plan struct {
	n       int
	factors []int   // prime factorization of n, ascending (4s merged)
	stages  []stage // one entry per factorization level, top level first
	// perm is the order the stage loop takes its input in: row k holds
	// input element perm[k] (the identity for n = 1, which has no stages).
	perm []int
}

// NewPlan creates a transform plan for length n >= 1 whose prime factors
// are at most 7 - every length NextFast returns. All setup work -
// factorization, per-level twiddle tables, the digit reversal - happens
// here; the transform itself reads precomputed tables only.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fourier: transform length %d < 1", n)
	}
	f := factorize(n)
	if len(f) > 0 && f[len(f)-1] > maxRadix {
		return nil, fmt.Errorf("fourier: transform length %d has prime factor %d; lengths must factor into 2, 3, 5 and 7 (NextFast(%d) = %d)",
			n, f[len(f)-1], n, NextFast(n))
	}
	p := &Plan{n: n, factors: mergeRadix4(f)}
	p.buildStages()
	p.buildPerm()
	return p, nil
}

// buildPerm tabulates perm, the mixed-radix digit reversal: row
// sum_l q_l*m_l holds input element sum_l q_l*s_l, with q_l < r_l and
// s_l = r_0*...*r_{l-1} the input stride of level l.
func (p *Plan) buildPerm() {
	p.perm = make([]int, p.n)
	for k := range p.perm {
		j, s := 0, 1
		for _, st := range p.stages {
			j += k / st.m % st.r * s
			s *= st.r
		}
		p.perm[k] = j
	}
}

// buildStages tabulates the combine twiddles for every level.
// Level l transforms length n_l = n / prod(r_0..r_{l-1}), splitting off
// r_l = the largest remaining factor; its forward table tw[q*m+k] equals the
// global twiddle exp(-2*pi*i*q*k*step/N) with step = N/n_l.
func (p *Plan) buildStages() {
	n := p.n
	rem := append([]int(nil), p.factors...)
	nl := n
	for len(rem) > 0 {
		r := rem[len(rem)-1]
		rem = rem[:len(rem)-1]
		m := nl / r
		st := stage{
			r: r, m: m,
			twRe: make([]float64, nl), twFim: make([]float64, nl), twIim: make([]float64, nl),
			rootRe: make([]float64, r), rootFim: make([]float64, r), rootIim: make([]float64, r),
		}
		step := n / nl
		for q := 0; q < r; q++ {
			for k := 0; k < m; k++ {
				c, s := unitRoot(q*k*step, n)
				st.twRe[q*m+k], st.twFim[q*m+k], st.twIim[q*m+k] = c, s, -s
			}
			c, s := unitRoot(q, r)
			st.rootRe[q], st.rootFim[q], st.rootIim[q] = c, s, -s
		}
		p.stages = append(p.stages, st)
		nl = m
	}
}

// unitRoot returns exp(-2*pi*i*e/n) as (cos, sin). The quarter turns are
// exact - 1 + 0i at e = 0, which the butterflies skip multiplying by, and
// radix 4's root[1] = -i, which they apply as a swap of parts - where Sincos
// of the rounded angle leaves ~1e-16 in the part that should be zero.
func unitRoot(e, n int) (c, s float64) {
	e %= n
	if 4*e%n == 0 {
		return [4]float64{1, 0, -1, 0}[4*e/n], [4]float64{0, -1, 0, 1}[4*e/n]
	}
	s, c = math.Sincos(-2 * math.Pi * float64(e) / float64(n))
	return c, s
}

// MustPlan is NewPlan that panics on error; for use with known-good sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len reports the transform length.
func (p *Plan) Len() int { return p.n }

// mergeRadix4 rewrites pairs of 2s as radix-4 passes, which have a cheaper
// butterfly, keeping the list sorted ascending.
func mergeRadix4(f []int) []int {
	twos := 0
	rest := f[:0]
	for _, v := range f {
		if v == 2 {
			twos++
		} else {
			rest = append(rest, v)
		}
	}
	out := make([]int, 0, len(f))
	if twos%2 == 1 {
		out = append(out, 2)
	}
	for i := 0; i < twos/2; i++ {
		out = append(out, 4)
	}
	out = append(out, rest...)
	// rest was already ascending and >= 3; a single insertion pass keeps
	// the merged list sorted.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// factorize returns the ascending prime factorization of n >= 1.
func factorize(n int) []int {
	var f []int
	for d := 2; d*d <= n; d++ {
		for n%d == 0 {
			f = append(f, d)
			n /= d
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}

// IsFast reports whether n factors entirely into primes <= 7, the sizes for
// which the mixed-radix path is most efficient.
func IsFast(n int) bool {
	if n < 1 {
		return false
	}
	for _, d := range []int{2, 3, 5, 7} {
		for n%d == 0 {
			n /= d
		}
	}
	return n == 1
}

// NextFast returns the smallest m >= n with prime factors <= 7.
func NextFast(n int) int {
	if n < 1 {
		return 1
	}
	for !IsFast(n) {
		n++
	}
	return n
}
