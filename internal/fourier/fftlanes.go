package fourier

import "ptdft/internal/lanes"

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
// block where it lies.

const lw = lanes.Width

// useAVX2 selects the vector kernels of bfly_amd64.s over the Go loops
// below for the radix-2/3/4/7 combines and the full-group row copies
// (radix 5 always runs the Go loop). It is
// set once, at init, from what the CPU reports (bfly_amd64.go) and stays
// false on every other GOARCH; nothing a user sets reaches it. Both paths
// produce the same bits - the kernels evaluate the Go expressions operation
// for operation, without fused multiply-add - so the Go loops are the
// portable path and the oracle (TestVecKernelsBitIdentical flips this
// variable in-package).
var useAVX2 bool

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
// Radix 5 and 7 take the symmetric form: with t_q = tw_q * F_q[k] and
// a = F_0[k], s_q = t_q + t_{r-q} and d_q = t_q - t_{r-q} for q <= r/2,
//
//	X[p]   = a + sum_q c_qp*s_q + i*sum_q n_qp*d_q
//	X[r-p] = a + sum_q c_qp*s_q - i*sum_q n_qp*d_q
//
// where c_qp + i*n_qp = root[(q*p) mod r], the tabulated value: 60 real
// multiplies per radix-7 row where the direct sum takes 196.
func combineLanes(r, m int, dre, dim, twre, twim, rore, roim []float64) {
	switch r {
	case 2:
		for k := 0; k < m; k++ {
			wr, wi := twre[m+k], twim[m+k]
			ar := (*[lw]float64)(dre[k*lw:])
			ai := (*[lw]float64)(dim[k*lw:])
			br := (*[lw]float64)(dre[(m+k)*lw:])
			bi := (*[lw]float64)(dim[(m+k)*lw:])
			for l := 0; l < lw; l++ {
				tr := br[l]*wr - bi[l]*wi
				ti := br[l]*wi + bi[l]*wr
				br[l] = ar[l] - tr
				bi[l] = ai[l] - ti
				ar[l] += tr
				ai[l] += ti
			}
		}
	case 3:
		w1r, w1i := rore[1], roim[1]
		w2r, w2i := rore[2], roim[2]
		for k := 0; k < m; k++ {
			b1r, b1i := twre[m+k], twim[m+k]
			b2r, b2i := twre[2*m+k], twim[2*m+k]
			ar := (*[lw]float64)(dre[k*lw:])
			ai := (*[lw]float64)(dim[k*lw:])
			br := (*[lw]float64)(dre[(m+k)*lw:])
			bi := (*[lw]float64)(dim[(m+k)*lw:])
			cr := (*[lw]float64)(dre[(2*m+k)*lw:])
			ci := (*[lw]float64)(dim[(2*m+k)*lw:])
			for l := 0; l < lw; l++ {
				xr := br[l]*b1r - bi[l]*b1i
				xi := br[l]*b1i + bi[l]*b1r
				yr := cr[l]*b2r - ci[l]*b2i
				yi := cr[l]*b2i + ci[l]*b2r
				a0r, a0i := ar[l], ai[l]
				ar[l] = a0r + xr + yr
				ai[l] = a0i + xi + yi
				br[l] = a0r + (xr*w1r - xi*w1i) + (yr*w2r - yi*w2i)
				bi[l] = a0i + (xr*w1i + xi*w1r) + (yr*w2i + yi*w2r)
				cr[l] = a0r + (xr*w2r - xi*w2i) + (yr*w1r - yi*w1i)
				ci[l] = a0i + (xr*w2i + xi*w2r) + (yr*w1i + yi*w1r)
			}
		}
	case 4:
		// root[1] is ∓i up to rounding; the tabulated value is what the
		// vector kernel multiplies by, and every pinned trajectory has it.
		jr, ji := rore[1], roim[1]
		for k := 0; k < m; k++ {
			w1r, w1i := twre[m+k], twim[m+k]
			w2r, w2i := twre[2*m+k], twim[2*m+k]
			w3r, w3i := twre[3*m+k], twim[3*m+k]
			ar := (*[lw]float64)(dre[k*lw:])
			ai := (*[lw]float64)(dim[k*lw:])
			br := (*[lw]float64)(dre[(m+k)*lw:])
			bi := (*[lw]float64)(dim[(m+k)*lw:])
			cr := (*[lw]float64)(dre[(2*m+k)*lw:])
			ci := (*[lw]float64)(dim[(2*m+k)*lw:])
			er := (*[lw]float64)(dre[(3*m+k)*lw:])
			ei := (*[lw]float64)(dim[(3*m+k)*lw:])
			for l := 0; l < lw; l++ {
				xr := br[l]*w1r - bi[l]*w1i
				xi := br[l]*w1i + bi[l]*w1r
				yr := cr[l]*w2r - ci[l]*w2i
				yi := cr[l]*w2i + ci[l]*w2r
				zr := er[l]*w3r - ei[l]*w3i
				zi := er[l]*w3i + ei[l]*w3r
				apcr, apci := ar[l]+yr, ai[l]+yi
				amcr, amci := ar[l]-yr, ai[l]-yi
				bpdr, bpdi := xr+zr, xi+zi
				dr0, di0 := xr-zr, xi-zi
				bmdr := dr0*jr - di0*ji
				bmdi := dr0*ji + di0*jr
				ar[l] = apcr + bpdr
				ai[l] = apci + bpdi
				br[l] = amcr + bmdr
				bi[l] = amci + bmdi
				cr[l] = apcr - bpdr
				ci[l] = apci - bpdi
				er[l] = amcr - bmdr
				ei[l] = amci - bmdi
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
				t1r, t1i := x1r[l]*w1r-x1i[l]*w1i, x1r[l]*w1i+x1i[l]*w1r
				t2r, t2i := x2r[l]*w2r-x2i[l]*w2i, x2r[l]*w2i+x2i[l]*w2r
				t3r, t3i := x3r[l]*w3r-x3i[l]*w3i, x3r[l]*w3i+x3i[l]*w3r
				t4r, t4i := x4r[l]*w4r-x4i[l]*w4i, x4r[l]*w4i+x4i[l]*w4r
				s1r, s1i, d1r, d1i := t1r+t4r, t1i+t4i, t1r-t4r, t1i-t4i
				s2r, s2i, d2r, d2i := t2r+t3r, t2i+t3i, t2r-t3r, t2i-t3i
				ar, ai := x0r[l], x0i[l]
				er, ei := ar+c1*s1r+c2*s2r, ai+c1*s1i+c2*s2i
				or, oi := n1*d1r+n2*d2r, n1*d1i+n2*d2i
				x1r[l], x1i[l], x4r[l], x4i[l] = er-oi, ei+or, er+oi, ei-or
				er, ei = ar+c2*s1r+c4*s2r, ai+c2*s1i+c4*s2i
				or, oi = n2*d1r+n4*d2r, n2*d1i+n4*d2i
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
				t1r, t1i := x1r[l]*w1r-x1i[l]*w1i, x1r[l]*w1i+x1i[l]*w1r
				t2r, t2i := x2r[l]*w2r-x2i[l]*w2i, x2r[l]*w2i+x2i[l]*w2r
				t3r, t3i := x3r[l]*w3r-x3i[l]*w3i, x3r[l]*w3i+x3i[l]*w3r
				t4r, t4i := x4r[l]*w4r-x4i[l]*w4i, x4r[l]*w4i+x4i[l]*w4r
				t5r, t5i := x5r[l]*w5r-x5i[l]*w5i, x5r[l]*w5i+x5i[l]*w5r
				t6r, t6i := x6r[l]*w6r-x6i[l]*w6i, x6r[l]*w6i+x6i[l]*w6r
				s1r, s1i, d1r, d1i := t1r+t6r, t1i+t6i, t1r-t6r, t1i-t6i
				s2r, s2i, d2r, d2i := t2r+t5r, t2i+t5i, t2r-t5r, t2i-t5i
				s3r, s3i, d3r, d3i := t3r+t4r, t3i+t4i, t3r-t4r, t3i-t4i
				ar, ai := x0r[l], x0i[l]
				er, ei := ar+c1*s1r+c2*s2r+c3*s3r, ai+c1*s1i+c2*s2i+c3*s3i
				or, oi := n1*d1r+n2*d2r+n3*d3r, n1*d1i+n2*d2i+n3*d3i
				x1r[l], x1i[l], x6r[l], x6i[l] = er-oi, ei+or, er+oi, ei-or
				er, ei = ar+c2*s1r+c4*s2r+c6*s3r, ai+c2*s1i+c4*s2i+c6*s3i
				or, oi = n2*d1r+n4*d2r+n6*d3r, n2*d1i+n4*d2i+n6*d3i
				x2r[l], x2i[l], x5r[l], x5i[l] = er-oi, ei+or, er+oi, ei-or
				er, ei = ar+c3*s1r+c6*s2r+c2*s3r, ai+c3*s1i+c6*s2i+c2*s3i
				or, oi = n3*d1r+n6*d2r+n2*d3r, n3*d1i+n6*d2i+n2*d3i
				x3r[l], x3i[l], x4r[l], x4i[l] = er-oi, ei+or, er+oi, ei-or
				x0r[l], x0i[l] = ar+s1r+s2r+s3r, ai+s1i+s2i+s3i
			}
		}
	}
}

// laneRow is row i of one half of a lane block.
func laneRow(d []float64, i int) *[lw]float64 { return (*[lw]float64)(d[i*lw:]) }
