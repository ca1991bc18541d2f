package fourier

import (
	"math"

	"ptdft/internal/lanes"
)

// This file is the 1D transform: the in-place mixed-radix stage loop that
// fft.go plans, operating on lanes.Width pencils at once, with one
// butterfly per radix in {2, 3, 4, 5, 7} - the only radices a plan can
// have. Data lives in a lane block - a Slab of length n*lanes.Width with
// element k of pencil l at offset k*Width+l - so each butterfly loads its
// twiddle once (uniform) and applies it to Width independent pencils
// (varying) in a fixed-width, bounds-check-free inner loop. There is no
// recursion and no second block: the digit-reversal permutation of
// decimation in time lives in the gathers that fill the block (the plan's
// perm, read by every pass in slab.go), and the stages then combine the
// block where it lies. The butterflies are written in fused multiply-add
// (math.FMA, correctly rounded on every GOARCH), so the Go loops and the
// vector kernels round at the same places under every build.

const lw = lanes.Width

// hostcpu.AVX2 selects the vector kernels of bfly_amd64.s over the Go loops
// below for the radix-2/3/4/7 combines and the full-group row copies
// (radix 5 always runs the Go loop). Both paths produce the same bits - the
// kernels evaluate the Go expressions operation for operation, math.FMA as
// VFMADD231PD and kin - so the Go loops are the portable path and the
// oracle (TestVecKernelsBitIdentical flips the switch in-package).

// transformLanes runs one unnormalized transform in place over a lane block
// b of n*Width: input in perm order (row k is element perm[k]), output in
// natural order. The stages run deepest first, each over all of its blocks,
// so every element meets the same butterflies in the same order as under a
// recursion.
func (p *Plan) transformLanes(b lanes.Slab, inverse bool) {
	for d := len(p.stages) - 1; d >= 0; d-- {
		st := &p.stages[d]
		r, m := st.r, st.m
		twre, twim := st.twRe, st.twFim
		rore, roim := st.rootRe, st.rootFim
		if inverse {
			twim, roim = st.twIim, st.rootIim
		}
		if combineVec(r, m, p.n/(r*m), b.Re, b.Im, twre, twim, rore, roim) {
			continue
		}
		for o := 0; o < p.n*lw; o += r * m * lw {
			combineLanes(r, m, b.Re[o:], b.Im[o:], twre, twim, rore, roim)
		}
	}
}

// combineLanes is the Go rendition of one stage block's radix-r butterfly,
// in place over r sub-transforms of m rows each: X[k + p*m] = sum_q
// tw[q*m+k] * root[(q*p) mod r] * F_q[k], every element offset scaled by
// Width.
//
// Every butterfly takes the symmetric form: with t_q = tw_q * F_q[k] and
// a = F_0[k], s_q = t_q + t_{r-q} and d_q = t_q - t_{r-q} for q <= r/2,
//
//	X[p]   = a + sum_q c_qp*s_q + i*sum_q n_qp*d_q
//	X[r-p] = a + sum_q c_qp*s_q - i*sum_q n_qp*d_q
//
// where c_qp + i*n_qp = root[(q*p) mod r], the tabulated value: 20 packed
// operations per radix-3 half row where the direct sum took 48, 90 per
// radix-7 one where it took 132. Radix 4's root[1] is -i forward and +i
// inverse, tabulated exactly, so its n*d is a swap of parts and signs; radix
// 2 has no root at all.
//
// Rounding is the kernels' (bfly_amd64.s), written out so that no compiler
// can change it: every multiply-add is an explicit math.FMA (VFMADD231PD and
// kin, one rounding on every GOARCH), and every product that feeds a plain
// add or subtract is converted with float64(...), which the language
// forbids fusing. The k = 0 column of every stage skips its twiddles: their
// tabulated value is exactly 1 + 0i (TestTrivialTwiddles), so skipping them
// changes at most the sign of a zero.
func combineLanes(r, m int, dre, dim, twre, twim, rore, roim []float64) {
	switch r {
	case 2:
		for k := 0; k < m; k++ {
			wr, wi := twre[m+k], twim[m+k]
			x0r, x0i := laneRow(dre, k), laneRow(dim, k)
			x1r, x1i := laneRow(dre, m+k), laneRow(dim, m+k)
			for l := 0; l < lw; l++ {
				tr, ti := x1r[l], x1i[l]
				if k > 0 {
					tr, ti = twiddle(tr, ti, wr, wi)
				}
				ar, ai := x0r[l], x0i[l]
				x0r[l], x0i[l], x1r[l], x1i[l] = ar+tr, ai+ti, ar-tr, ai-ti
			}
		}
	case 3:
		c1, n1 := rore[1], roim[1]
		for k := 0; k < m; k++ {
			w1r, w1i := twre[m+k], twim[m+k]
			w2r, w2i := twre[2*m+k], twim[2*m+k]
			x0r, x0i := laneRow(dre, k), laneRow(dim, k)
			x1r, x1i := laneRow(dre, m+k), laneRow(dim, m+k)
			x2r, x2i := laneRow(dre, 2*m+k), laneRow(dim, 2*m+k)
			for l := 0; l < lw; l++ {
				t1r, t1i, t2r, t2i := x1r[l], x1i[l], x2r[l], x2i[l]
				if k > 0 {
					t1r, t1i = twiddle(t1r, t1i, w1r, w1i)
					t2r, t2i = twiddle(t2r, t2i, w2r, w2i)
				}
				sr, si, dr, di := t1r+t2r, t1i+t2i, t1r-t2r, t1i-t2i
				ar, ai := x0r[l], x0i[l]
				x0r[l], x0i[l] = ar+sr, ai+si
				er, ei := math.FMA(c1, sr, ar), math.FMA(c1, si, ai)
				x1r[l], x2r[l] = math.FMA(-n1, di, er), math.FMA(n1, di, er)
				x1i[l], x2i[l] = math.FMA(n1, dr, ei), math.FMA(-n1, dr, ei)
			}
		}
	case 4:
		// X[1], X[3] = amc + (-i)*d, amc - (-i)*d forward; the inverse's
		// root[1] = +i swaps which row each goes to.
		p1, p3 := 1, 3
		if roim[1] > 0 {
			p1, p3 = 3, 1
		}
		for k := 0; k < m; k++ {
			w1r, w1i := twre[m+k], twim[m+k]
			w2r, w2i := twre[2*m+k], twim[2*m+k]
			w3r, w3i := twre[3*m+k], twim[3*m+k]
			x0r, x0i := laneRow(dre, k), laneRow(dim, k)
			x1r, x1i := laneRow(dre, m+k), laneRow(dim, m+k)
			x2r, x2i := laneRow(dre, 2*m+k), laneRow(dim, 2*m+k)
			x3r, x3i := laneRow(dre, 3*m+k), laneRow(dim, 3*m+k)
			y1r, y1i := laneRow(dre, p1*m+k), laneRow(dim, p1*m+k)
			y3r, y3i := laneRow(dre, p3*m+k), laneRow(dim, p3*m+k)
			for l := 0; l < lw; l++ {
				t1r, t1i, t2r, t2i, t3r, t3i := x1r[l], x1i[l], x2r[l], x2i[l], x3r[l], x3i[l]
				if k > 0 {
					t1r, t1i = twiddle(t1r, t1i, w1r, w1i)
					t2r, t2i = twiddle(t2r, t2i, w2r, w2i)
					t3r, t3i = twiddle(t3r, t3i, w3r, w3i)
				}
				ar, ai := x0r[l], x0i[l]
				apcr, apci, amcr, amci := ar+t2r, ai+t2i, ar-t2r, ai-t2i
				bpdr, bpdi, dr, di := t1r+t3r, t1i+t3i, t1r-t3r, t1i-t3i
				x0r[l], x0i[l], x2r[l], x2i[l] = apcr+bpdr, apci+bpdi, apcr-bpdr, apci-bpdi
				y1r[l], y1i[l], y3r[l], y3i[l] = amcr+di, amci-dr, amcr-di, amci+dr
			}
		}
	case 5:
		c1, c2, c4 := rore[1], rore[2], rore[4]
		n1, n2, n4 := roim[1], roim[2], roim[4]
		for k := 0; k < m; k++ {
			w1r, w1i := twre[m+k], twim[m+k]
			w2r, w2i := twre[2*m+k], twim[2*m+k]
			w3r, w3i := twre[3*m+k], twim[3*m+k]
			w4r, w4i := twre[4*m+k], twim[4*m+k]
			x0r, x0i := laneRow(dre, k), laneRow(dim, k)
			x1r, x1i := laneRow(dre, m+k), laneRow(dim, m+k)
			x2r, x2i := laneRow(dre, 2*m+k), laneRow(dim, 2*m+k)
			x3r, x3i := laneRow(dre, 3*m+k), laneRow(dim, 3*m+k)
			x4r, x4i := laneRow(dre, 4*m+k), laneRow(dim, 4*m+k)
			for l := 0; l < lw; l++ {
				t1r, t1i, t2r, t2i := x1r[l], x1i[l], x2r[l], x2i[l]
				t3r, t3i, t4r, t4i := x3r[l], x3i[l], x4r[l], x4i[l]
				if k > 0 {
					t1r, t1i = twiddle(t1r, t1i, w1r, w1i)
					t2r, t2i = twiddle(t2r, t2i, w2r, w2i)
					t3r, t3i = twiddle(t3r, t3i, w3r, w3i)
					t4r, t4i = twiddle(t4r, t4i, w4r, w4i)
				}
				s1r, s1i, d1r, d1i := t1r+t4r, t1i+t4i, t1r-t4r, t1i-t4i
				s2r, s2i, d2r, d2i := t2r+t3r, t2i+t3i, t2r-t3r, t2i-t3i
				ar, ai := x0r[l], x0i[l]
				er, ei := macc2(ar, c1, s1r, c2, s2r), macc2(ai, c1, s1i, c2, s2i)
				or, oi := math.FMA(n2, d2r, float64(n1*d1r)), math.FMA(n2, d2i, float64(n1*d1i))
				x1r[l], x1i[l], x4r[l], x4i[l] = er-oi, ei+or, er+oi, ei-or
				er, ei = macc2(ar, c2, s1r, c4, s2r), macc2(ai, c2, s1i, c4, s2i)
				or, oi = math.FMA(n4, d2r, float64(n2*d1r)), math.FMA(n4, d2i, float64(n2*d1i))
				x2r[l], x2i[l], x3r[l], x3i[l] = er-oi, ei+or, er+oi, ei-or
				x0r[l], x0i[l] = ar+s1r+s2r, ai+s1i+s2i
			}
		}
	case 7:
		c1, c2, c3, c4, c6 := rore[1], rore[2], rore[3], rore[4], rore[6]
		n1, n2, n3, n4, n6 := roim[1], roim[2], roim[3], roim[4], roim[6]
		for k := 0; k < m; k++ {
			w1r, w1i := twre[m+k], twim[m+k]
			w2r, w2i := twre[2*m+k], twim[2*m+k]
			w3r, w3i := twre[3*m+k], twim[3*m+k]
			w4r, w4i := twre[4*m+k], twim[4*m+k]
			w5r, w5i := twre[5*m+k], twim[5*m+k]
			w6r, w6i := twre[6*m+k], twim[6*m+k]
			x0r, x0i := laneRow(dre, k), laneRow(dim, k)
			x1r, x1i := laneRow(dre, m+k), laneRow(dim, m+k)
			x2r, x2i := laneRow(dre, 2*m+k), laneRow(dim, 2*m+k)
			x3r, x3i := laneRow(dre, 3*m+k), laneRow(dim, 3*m+k)
			x4r, x4i := laneRow(dre, 4*m+k), laneRow(dim, 4*m+k)
			x5r, x5i := laneRow(dre, 5*m+k), laneRow(dim, 5*m+k)
			x6r, x6i := laneRow(dre, 6*m+k), laneRow(dim, 6*m+k)
			for l := 0; l < lw; l++ {
				t1r, t1i, t2r, t2i := x1r[l], x1i[l], x2r[l], x2i[l]
				t3r, t3i, t4r, t4i := x3r[l], x3i[l], x4r[l], x4i[l]
				t5r, t5i, t6r, t6i := x5r[l], x5i[l], x6r[l], x6i[l]
				if k > 0 {
					t1r, t1i = twiddle(t1r, t1i, w1r, w1i)
					t2r, t2i = twiddle(t2r, t2i, w2r, w2i)
					t3r, t3i = twiddle(t3r, t3i, w3r, w3i)
					t4r, t4i = twiddle(t4r, t4i, w4r, w4i)
					t5r, t5i = twiddle(t5r, t5i, w5r, w5i)
					t6r, t6i = twiddle(t6r, t6i, w6r, w6i)
				}
				s1r, s1i, d1r, d1i := t1r+t6r, t1i+t6i, t1r-t6r, t1i-t6i
				s2r, s2i, d2r, d2i := t2r+t5r, t2i+t5i, t2r-t5r, t2i-t5i
				s3r, s3i, d3r, d3i := t3r+t4r, t3i+t4i, t3r-t4r, t3i-t4i
				ar, ai := x0r[l], x0i[l]
				er, ei := macc3(ar, c1, s1r, c2, s2r, c3, s3r), macc3(ai, c1, s1i, c2, s2i, c3, s3i)
				or, oi := macc2(float64(n1*d1r), n2, d2r, n3, d3r), macc2(float64(n1*d1i), n2, d2i, n3, d3i)
				x1r[l], x1i[l], x6r[l], x6i[l] = er-oi, ei+or, er+oi, ei-or
				er, ei = macc3(ar, c2, s1r, c4, s2r, c6, s3r), macc3(ai, c2, s1i, c4, s2i, c6, s3i)
				or, oi = macc2(float64(n2*d1r), n4, d2r, n6, d3r), macc2(float64(n2*d1i), n4, d2i, n6, d3i)
				x2r[l], x2i[l], x5r[l], x5i[l] = er-oi, ei+or, er+oi, ei-or
				er, ei = macc3(ar, c3, s1r, c6, s2r, c2, s3r), macc3(ai, c3, s1i, c6, s2i, c2, s3i)
				or, oi = macc2(float64(n3*d1r), n6, d2r, n2, d3r), macc2(float64(n3*d1i), n6, d2i, n2, d3i)
				x3r[l], x3i[l], x4r[l], x4i[l] = er-oi, ei+or, er+oi, ei-or
				x0r[l], x0i[l] = ar+s1r+s2r+s3r, ai+s1i+s2i+s3i
			}
		}
	}
}

// macc2 is a + c1*x1 + c2*x2 and macc3 is a + c1*x1 + c2*x2 + c3*x3, each
// product fused into the running sum in that order.
func macc2(a, c1, x1, c2, x2 float64) float64 { return math.FMA(c2, x2, math.FMA(c1, x1, a)) }

func macc3(a, c1, x1, c2, x2, c3, x3 float64) float64 {
	return math.FMA(c3, x3, macc2(a, c1, x1, c2, x2))
}

// twiddle is x*w as the kernels' TWMUL rounds it: one multiply and one
// fused multiply-add per part.
func twiddle(xr, xi, wr, wi float64) (float64, float64) {
	return math.FMA(xr, wr, -float64(xi*wi)), math.FMA(xr, wi, float64(xi*wr))
}

// laneRow is row i of one half of a lane block.
func laneRow(d []float64, i int) *[lw]float64 { return (*[lw]float64)(d[i*lw:]) }
