package fourier

import "ptdft/internal/lanes"

// This file is the 1D transform: the in-place mixed-radix stage loop and
// the Bluestein fallback that fft.go plans, operating on lanes.Width
// pencils at once. Data lives in a lane block - a Slab of length
// n*lanes.Width with element k of pencil l at offset k*Width+l - so each
// butterfly loads its twiddle once (uniform) and applies it to Width
// independent pencils (varying) in a fixed-width, bounds-check-free inner
// loop. There is no recursion and no second block: the digit-reversal
// permutation of decimation in time lives in the gathers that fill the
// block (the plan's perm, read by every pass in slab.go), and the stages
// then combine the block where it lies.

const lw = lanes.Width

// useAVX2 selects the vector kernels of bfly_amd64.s over the Go loops
// below for the radix-2/3/4 combines and the full-group row copies. It is
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
// recursion. Bluestein plans require a workspace from NewWorkspace.
func (p *Plan) transformLanes(b lanes.Slab, inverse bool, ws *Workspace) {
	if p.blu != nil {
		p.blu.transformLanes(b, inverse, ws)
		return
	}
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
	default:
		var tr, ti [maxDirectRadix][lw]float64
		for k := 0; k < m; k++ {
			for q := 0; q < r; q++ {
				wr, wi := twre[q*m+k], twim[q*m+k]
				sr := (*[lw]float64)(dre[(q*m+k)*lw:])
				si := (*[lw]float64)(dim[(q*m+k)*lw:])
				for l := 0; l < lw; l++ {
					tr[q][l] = sr[l]*wr - si[l]*wi
					ti[q][l] = sr[l]*wi + si[l]*wr
				}
			}
			for pp := 0; pp < r; pp++ {
				accr := tr[0]
				acci := ti[0]
				idx := 0
				for q := 1; q < r; q++ {
					idx += pp
					if idx >= r {
						idx -= r
					}
					wr, wi := rore[idx], roim[idx]
					for l := 0; l < lw; l++ {
						accr[l] += tr[q][l]*wr - ti[q][l]*wi
						acci[l] += tr[q][l]*wi + ti[q][l]*wr
					}
				}
				*(*[lw]float64)(dre[(pp*m+k)*lw:]) = accr
				*(*[lw]float64)(dim[(pp*m+k)*lw:]) = acci
			}
		}
	}
}

// transformLanes is the lane-blocked Bluestein chirp-z transform, in place
// on x in natural order. The multiplies that feed its two power-of-two
// inner transforms write their rows in the inner plan's perm order (rows
// past n are the convolution's zero padding). The 1/m normalization of the
// inner inverse is folded into the final chirp multiply, saving one pass
// over the convolution buffer.
func (b *bluestein) transformLanes(x lanes.Slab, inverse bool, ws *Workspace) {
	chre, chim := b.chirpRe, b.chirpFim
	kre, kim := b.kernelFre, b.kernelFim
	if inverse {
		chim = b.chirpIim
		kre, kim = b.kernelBre, b.kernelBim
	}
	la, lfa := ws.la, ws.lfa
	perm := b.inner.perm
	for k, j := range perm {
		ar := (*[lw]float64)(la.Re[k*lw:])
		ai := (*[lw]float64)(la.Im[k*lw:])
		if j >= b.n {
			*ar, *ai = [lw]float64{}, [lw]float64{}
			continue
		}
		wr, wi := chre[j], chim[j]
		sr := (*[lw]float64)(x.Re[j*lw:])
		si := (*[lw]float64)(x.Im[j*lw:])
		for l := 0; l < lw; l++ {
			ar[l] = sr[l]*wr - si[l]*wi
			ai[l] = sr[l]*wi + si[l]*wr
		}
	}
	b.inner.transformLanes(la, false, nil)
	for k, i := range perm {
		wr, wi := kre[i], kim[i]
		ar := (*[lw]float64)(la.Re[i*lw:])
		ai := (*[lw]float64)(la.Im[i*lw:])
		fr := (*[lw]float64)(lfa.Re[k*lw:])
		fi := (*[lw]float64)(lfa.Im[k*lw:])
		for l := 0; l < lw; l++ {
			fr[l] = ar[l]*wr - ai[l]*wi
			fi[l] = ar[l]*wi + ai[l]*wr
		}
	}
	b.inner.transformLanes(lfa, true, nil)
	invm := 1 / float64(b.m)
	for k := 0; k < b.n; k++ {
		wr, wi := chre[k]*invm, chim[k]*invm
		fr := (*[lw]float64)(lfa.Re[k*lw:])
		fi := (*[lw]float64)(lfa.Im[k*lw:])
		xr := (*[lw]float64)(x.Re[k*lw:])
		xi := (*[lw]float64)(x.Im[k*lw:])
		for l := 0; l < lw; l++ {
			xr[l] = fr[l]*wr - fi[l]*wi
			xi[l] = fr[l]*wi + fi[l]*wr
		}
	}
}
