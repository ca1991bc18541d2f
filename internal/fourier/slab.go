package fourier

import (
	"fmt"

	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
)

// This file is the 3D transform: the grid lives in a lanes.Slab (element i
// at Re[i]/Im[i]) and every axis pass transforms lanes.Width pencils at once
// through transformLanes, with the Poisson kernel multiply fused into the
// pass that touches the data anyway. Each pass gathers a lane group into
// ws.lu in its axis plan's digit-reversal order
// (element perm[k] into row k), transforms it there in place - one stage
// loop, no recursion - and scatters the natural order back out of the same
// block, so the permutation costs no pass of its own. Pencil-count
// remainders (grids whose pencil counts are not multiples of Width) run
// through the same lane kernels with the unused lanes zero-filled - the
// transform of a zero lane is zero, so the padding never leaks into real
// output and the code stays branch-uniform.
//
// Lane geometry per pass, for the row-major index (ix*Ny + iy)*Nz + iz;
// only a pass's last group can be partial:
//
//	z pass: lanes = Width consecutive entries of the row list (ix*Ny + iy),
//	        wherever they lie; gather is a small transpose (rows are
//	        contiguous, the lane block is element-major).
//	y pass: lanes = Width consecutive iz within one listed x-plane ix
//	        (element iy at ix*Ny*Nz + iy*Nz + iz0: one contiguous Width-wide
//	        copy), then the Nz mod Width pencils left in each plane, Width
//	        of them across planes, moved lane by lane.
//	x pass: lanes = Width consecutive flat pencil indices r in [0, Ny*Nz);
//	        element ix of the group starts at r0 + ix*Ny*Nz - again one
//	        contiguous Width-wide copy per element.
//
// Those are row lanes, for one field. The exchange's ContractPairsWS (end
// of file) makes lane l pair l instead, element g of Width pairs one row:
// every pass, z included, moves contiguous rows, with no transpose and no
// partial lane group.

func (p *Plan3) checkSlab(s lanes.Slab, what string) {
	if len(s.Re) != p.Size() || len(s.Im) != p.Size() {
		panic(fmt.Sprintf("fourier: slab %s length %d/%d != grid %d", what, len(s.Re), len(s.Im), p.Size()))
	}
}

// zPassSlab transforms along z, src -> dst (which may be the same slab).
// rows lists the z-rows (flat index ix*Ny + iy) to transform, Width of them
// per lane group; nil means every row. Rows not listed are neither read nor
// written. A group's eight rows are eight contiguous lanes wherever they
// lie, which the transposing kernels move.
func (p *Plan3) zPassSlab(dst, src lanes.Slab, rows []int, inverse bool, ws *Workspace3) {
	nz := p.nz
	n := p.nx * p.ny
	if rows != nil {
		n = len(rows)
	}
	lu := ws.lu.Slice(0, nz*lw)
	var bases [lw]int
	for r0 := 0; r0 < n; r0 += lw {
		L := min(lw, n-r0)
		for l := 0; l < L; l++ {
			bases[l] = (r0 + l) * nz
			if rows != nil {
				bases[l] = rows[r0+l] * nz
			}
		}
		gatherLanes(lu, src, &bases, 1, L, p.pz)
		p.pz.transformLanes(lu, inverse)
		scatterLanes(dst, lu, &bases, nz, 1, L)
	}
}

// zeroTailLanes clears lanes [L, Width) of an n-element lane block.
func zeroTailLanes(b lanes.Slab, n, L int) {
	if L == lw {
		return
	}
	for k := 0; k < n; k++ {
		for l := L; l < lw; l++ {
			b.Re[k*lw+l] = 0
			b.Im[k*lw+l] = 0
		}
	}
}

// gatherStrided packs Width pencils of length pl.n with element stride
// into a lane block in the plan's digit-reversal order: lane l of row k
// reads src[off + pl.perm[k]*stride + l], lanes l < L. The Width
// consecutive source values per element are contiguous, so a full group
// moves one 8-wide copy per row; a partial one runs gatherLanes.
func gatherStrided(b lanes.Slab, src lanes.Slab, off, stride, L int, pl *Plan) {
	if L < lw {
		bases := consecutive(off)
		gatherLanes(b, src, &bases, stride, L, pl)
		return
	}
	if gatherRowsVec(b, src, off, stride, pl) {
		return
	}
	for k := 0; k < pl.n; k++ {
		o := off + pl.perm[k]*stride
		*(*[lw]float64)(b.Re[k*lw:]) = *(*[lw]float64)(src.Re[o:])
		*(*[lw]float64)(b.Im[k*lw:]) = *(*[lw]float64)(src.Im[o:])
	}
}

// consecutive returns the lane bases off, off+1, ..., off+Width-1.
func consecutive(off int) (bases [lw]int) {
	for l := range bases {
		bases[l] = off + l
	}
	return bases
}

// gatherLanes is gatherStrided for lanes that need not be consecutive:
// lane l of row k reads src[bases[l] + pl.perm[k]*stride], lanes l < L;
// the rest are zero-filled.
func gatherLanes(b lanes.Slab, src lanes.Slab, bases *[lw]int, stride, L int, pl *Plan) {
	if L == lw && lanesVec(b, src, bases, pl.n, stride, pl) {
		return
	}
	for k := 0; k < pl.n; k++ {
		o := pl.perm[k] * stride
		for l := 0; l < L; l++ {
			b.Re[k*lw+l] = src.Re[bases[l]+o]
			b.Im[k*lw+l] = src.Im[bases[l]+o]
		}
		for l := L; l < lw; l++ {
			b.Re[k*lw+l] = 0
			b.Im[k*lw+l] = 0
		}
	}
}

// scatterLanes is the inverse of gatherLanes in natural order: row k,
// lane l goes to dst[bases[l] + k*stride].
func scatterLanes(dst lanes.Slab, b lanes.Slab, bases *[lw]int, n, stride, L int) {
	if L == lw && lanesVec(b, dst, bases, n, stride, nil) {
		return
	}
	for k := 0; k < n; k++ {
		for l := 0; l < L; l++ {
			dst.Re[bases[l]+k*stride] = b.Re[k*lw+l]
			dst.Im[bases[l]+k*stride] = b.Im[k*lw+l]
		}
	}
}

// scatterStrided is the inverse of gatherStrided in natural order: row k
// goes to dst[off + k*stride].
func scatterStrided(dst lanes.Slab, b lanes.Slab, off, n, stride, L int) {
	if L < lw {
		bases := consecutive(off)
		scatterLanes(dst, b, &bases, n, stride, L)
		return
	}
	if scatterRowsVec(dst, b, off, n, stride) {
		return
	}
	for k := 0; k < n; k++ {
		o := off + k*stride
		*(*[lw]float64)(dst.Re[o:]) = *(*[lw]float64)(b.Re[k*lw:])
		*(*[lw]float64)(dst.Im[o:]) = *(*[lw]float64)(b.Im[k*lw:])
	}
}

// addNorm2Strided is scatterStrided that adds each value's squared modulus
// into acc instead of writing the value: acc[off + k*stride + l] +=
// |row k, lane l|^2, lanes l < L.
func addNorm2Strided(acc []float64, b lanes.Slab, off, n, stride, L int) {
	if L == lw && addNorm2RowsVec(acc, b, off, n, stride) {
		return
	}
	for k := 0; k < n; k++ {
		a := acc[off+k*stride:][:L]
		re, im := b.Re[k*lw:][:L], b.Im[k*lw:][:L]
		for l := range a {
			a[l] += float64(re[l]*re[l]) + float64(im[l]*im[l])
		}
	}
}

// yPassSlab transforms along y (stride nz) in place. planes lists the
// x-planes ix to transform; nil means every plane. Each plane's first
// nz - nz%Width pencils go Width at a time, contiguous rows; the nz%Width
// left in every plane then go Width at a time across planes, lane by lane,
// so only the pass's last group can be partial.
func (p *Plan3) yPassSlab(dst lanes.Slab, planes []int, inverse bool, ws *Workspace3) {
	ny, nz := p.ny, p.nz
	n := p.nx
	if planes != nil {
		n = len(planes)
	}
	plane := func(i int) int {
		if planes != nil {
			i = planes[i]
		}
		return i * ny * nz
	}
	lu := ws.lu.Slice(0, ny*lw)
	full := nz - nz%lw
	for i := 0; i < n; i++ {
		for iz0 := 0; iz0 < full; iz0 += lw {
			gatherStrided(lu, dst, plane(i)+iz0, nz, lw, p.py)
			p.py.transformLanes(lu, inverse)
			scatterStrided(dst, lu, plane(i)+iz0, ny, nz, lw)
		}
	}
	var bases [lw]int
	for r, q0 := nz-full, 0; q0 < n*r; q0 += lw {
		L := min(lw, n*r-q0)
		for l := 0; l < L; l++ {
			bases[l] = plane((q0+l)/r) + full + (q0+l)%r
		}
		gatherLanes(lu, dst, &bases, nz, L, p.py)
		p.py.transformLanes(lu, inverse)
		scatterLanes(dst, lu, &bases, ny, nz, L)
	}
}

// xPassSlab transforms along x (stride ny*nz) in place or, given acc,
// adds each transformed point's squared modulus into acc where it would
// have written the point, and leaves dst as the y pass left it.
func (p *Plan3) xPassSlab(dst lanes.Slab, acc []float64, inverse bool, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	stride := ny * nz
	lu := ws.lu.Slice(0, nx*lw)
	for r0 := 0; r0 < stride; r0 += lw {
		L := min(lw, stride-r0)
		gatherStrided(lu, dst, r0, stride, L, p.px)
		p.px.transformLanes(lu, inverse)
		if acc != nil {
			addNorm2Strided(acc, lu, r0, nx, stride, L)
		} else {
			scatterStrided(dst, lu, r0, nx, stride, L)
		}
	}
}

// xPassKernelSlab is the kernel-fused x pass of the Poisson round trip over
// the x pencils [lo, hi) (lo a multiple of Width): per lane group, forward
// transform, multiply by kernel (carrying the global 1/N, N = len(kernel)),
// inverse transform, write back. The kernel values are varying (one per
// lane), read as contiguous Width-wide blocks - or, on the pair layout,
// uniform: one load per grid point for its Width pairs. The
// multiply reads the forward result from ws.lu in natural order and writes
// the inverse's input into ws.lv in perm order, so the round trip moves no
// row more often than a forward pass and an inverse pass would.
func (p *Plan3) xPassKernelSlab(buf lanes.Slab, kernel []float64, lo, hi int, uniform bool, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	stride := ny * nz
	invN := 1 / float64(len(kernel))
	lu := ws.lu.Slice(0, nx*lw)
	lv := ws.lv.Slice(0, nx*lw)
	perm := p.px.perm
	var pad [lw]float64
	for r0 := lo; r0 < hi; r0 += lw {
		L := min(lw, hi-r0)
		gatherStrided(lu, buf, r0, stride, L, p.px)
		p.px.transformLanes(lu, false)
		for k, i := range perm {
			o := r0 + i*stride
			ur, ui := laneRow(lu.Re, i), laneRow(lu.Im, i)
			vr, vi := laneRow(lv.Re, k), laneRow(lv.Im, k)
			if uniform {
				s := kernel[o/lw] * invN
				for l := 0; l < lw; l++ {
					vr[l] = ur[l] * s
					vi[l] = ui[l] * s
				}
				continue
			}
			kv := &pad
			if L == lw {
				kv = (*[lw]float64)(kernel[o:])
			} else {
				// Lanes past L are padding: they multiply by zero.
				copy(pad[:], kernel[o:o+L])
			}
			for l := 0; l < lw; l++ {
				s := kv[l] * invN
				vr[l] = ur[l] * s
				vi[l] = ui[l] * s
			}
		}
		p.px.transformLanes(lv, true)
		scatterStrided(buf, lv, r0, nx, stride, L)
	}
}

// RawSlabWS runs one unnormalized transform over a grid slab (no 1/N on
// the inverse). dst and src may be the same slab. Callers fold the
// normalization into a pointwise scaling they already do (the grid
// scatter/gather, the Poisson kernel multiply).
func (p *Plan3) RawSlabWS(dst, src lanes.Slab, inverse bool, ws *Workspace3) {
	p.checkSlab(dst, "dst")
	p.checkSlab(src, "src")
	p.zPassSlab(dst, src, nil, inverse, ws)
	p.yPassSlab(dst, nil, inverse, ws)
	p.xPassSlab(dst, nil, inverse, ws)
}

// AddNorm2PrunedSlabWS adds |x_i|^2 into acc[i], x the unnormalized
// inverse transform of buf (RawSlabWS(buf, buf, true, ws)), for a box that
// is zero outside a declared set of z-rows, as a zero-padded sphere of
// Fourier coefficients is: one orbital's share of a density. The z pass
// runs only over rows (flat indices ix*Ny + iy of the z-rows that may hold
// nonzeros), the y pass only over planes (the x-planes ix those rows lie
// in) and the x pass over everything, adding each transformed lane row's
// squared moduli into acc where the full inverse would have written the
// row; the rows and planes left out would transform zeros to zeros. buf is
// consumed: it is left holding the y pass's output. With acc nil the x
// pass writes x into buf instead: the pruned RawSlabWS(buf, buf, true, ws)
// of a wave-box synthesis.
//
// Precondition: every nonzero of buf lies in a listed row, every listed
// row lies in a listed plane, and both lists are duplicate-free. Nothing
// checks it; data outside the lists is silently treated as zero by the
// passes that skip it and read by the ones that do not.
func (p *Plan3) AddNorm2PrunedSlabWS(acc []float64, buf lanes.Slab, rows, planes []int, ws *Workspace3) {
	p.checkSlab(buf, "buf")
	if acc != nil && len(acc) != p.Size() {
		panic(fmt.Sprintf("fourier: accumulator length %d != grid %d", len(acc), p.Size()))
	}
	p.zPassSlab(buf, buf, rows, true, ws)
	p.yPassSlab(buf, planes, true, ws)
	p.xPassSlab(buf, acc, true, ws)
}

// PoissonSlabWS is the fused Poisson round trip over a grid slab:
//
//	buf <- IFFT[ kernel ⊙ FFT[buf] ] / N
//
// i.e. forward transform, pointwise kernel multiply (with the inverse
// normalization folded in), inverse transform. The kernel multiply rides
// inside the x pass - each lane group of x lines is forward-transformed,
// multiplied by kernel/N while still in the lane block and
// inverse-transformed before being written back - so the round trip makes
// five grid passes instead of the seven of a forward + multiply + inverse
// sequence.
func (p *Plan3) PoissonSlabWS(buf lanes.Slab, kernel []float64, ws *Workspace3) {
	p.checkSlab(buf, "buf")
	if len(kernel) != p.Size() {
		panic(fmt.Sprintf("fourier: Poisson kernel length %d != grid %d", len(kernel), p.Size()))
	}
	p.zPassSlab(buf, buf, nil, false, ws)
	p.yPassSlab(buf, nil, false, ws)
	p.xPassKernelSlab(buf, kernel, 0, p.ny*p.nz, false, ws)
	p.yPassSlab(buf, nil, true, ws)
	p.zPassSlab(buf, buf, nil, true, ws)
}

// PairLanes is one call of the pair-lane contraction: lane l < N solves
// v_l = Poisson[conj(A[l]) ⊙ B[l]] and accumulates AccB[l] += scale * A[l] ⊙
// v_l and, unless AccA[l] is empty, AccA[l] += scale * B[l] ⊙ conj(v_l). A
// side shared by every lane (uniform) is the same grid slab in each entry;
// no operand may alias an accumulator.
type PairLanes struct {
	N                int
	A, B, AccA, AccB [lw]lanes.Slab
}

// ContractPairsWS is the fused Fock-exchange contraction over pair lanes:
// the (i, j) steps of Alg. 2 for pl.N pairs at once, each the PoissonSlabWS
// round trip of its pair product, the products formed inside the first z
// pass and the accumulations inside the last. buf (Width*Size() elements)
// holds the pairs band-interleaved, element g of lane l at g*Width + l: a z
// pencil is a lane block, transformed where it lies, and the y and x passes
// (on p.pairs) gather contiguous Width-wide rows at a stride. Each lane runs
// the butterflies of a single-pair solve, and every accumulator element
// takes its adds in lane order. The pencils of each pass are cut into
// len(wss) static shares, run on as many workers; a z-row, so every add
// into an element, stays in one share, so the bits do not depend on the
// worker count.
func (p *Plan3) ContractPairsWS(pl *PairLanes, buf lanes.Slab, kernel []float64, scale float64, wss []*Workspace3) {
	n := p.Size()
	if pl.N < 1 || pl.N > lw || len(wss) < 1 || len(buf.Re) != n*lw || len(buf.Im) != n*lw || len(kernel) != n {
		panic(fmt.Sprintf("fourier: %d pairs, %d workers, pair buffer %d/%d and kernel %d for a grid of %d",
			pl.N, len(wss), len(buf.Re), len(buf.Im), len(kernel), n))
	}
	for l := 0; l < pl.N; l++ {
		p.checkSlab(pl.A[l], "A")
		p.checkSlab(pl.B[l], "B")
		p.checkSlab(pl.AccB[l], "AccB")
		if pl.AccA[l].Len() != 0 {
			p.checkSlab(pl.AccA[l], "AccA")
		}
	}
	for pass := 0; pass < 5; pass++ {
		if len(wss) == 1 {
			p.pairPass(pass, pl, buf, kernel, scale, 0, 1, wss[0])
		} else {
			p.pairPassParallel(pass, pl, buf, kernel, scale, wss)
		}
	}
}

// pairPassParallel runs every share of one pass of ContractPairsWS.
func (p *Plan3) pairPassParallel(pass int, pl *PairLanes, buf lanes.Slab, kernel []float64, scale float64, wss []*Workspace3) {
	parallel.ForWorker(len(wss), func(w, share int) {
		p.pairPass(pass, pl, buf, kernel, scale, share, len(wss), wss[w])
	})
}

// pairPass runs worker w's share of pass 0-4 of ContractPairsWS: z forward
// with the pair products, y forward, x with the kernel, y inverse, z
// inverse with the accumulations. The products and accumulations run on
// the pair kernels where they take the row, else on the Go loops here,
// their oracle, which write every product float64(...) so that no build
// fuses it into an add.
func (p *Plan3) pairPass(pass int, pl *PairLanes, buf lanes.Slab, kernel []float64, scale float64, w, nw int, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	share := func(n int) (int, int) { return w * n / nw, (w + 1) * n / nw }
	var t pairRows
	if pass == 0 || pass == 4 {
		bindPairRows(&t, pl, p)
	}
	switch pass {
	case 0:
		lo, hi := share(nx * ny)
		for r := lo; r < hi; r++ {
			base := r * nz
			blk := buf.Slice(base*lw, (base+nz)*lw)
			vec := pairProductsVec(&t, blk, ws.lv, base)
			for l := 0; l < pl.N && !vec; l++ {
				ar, ai := pl.A[l].Re[base:base+nz], pl.A[l].Im[base:base+nz]
				br, bi := pl.B[l].Re[base:base+nz], pl.B[l].Im[base:base+nz]
				for k, j := range p.pz.perm {
					blk.Re[k*lw+l] = float64(ar[j]*br[j]) + float64(ai[j]*bi[j])
					blk.Im[k*lw+l] = float64(ar[j]*bi[j]) - float64(ai[j]*br[j])
				}
			}
			zeroTailLanes(blk, nz, pl.N)
			p.pz.transformLanes(blk, false)
		}
	case 1, 3: // the x-planes are independent: px.perm orders them as well as any
		lo, hi := share(nx)
		p.pairs.yPassSlab(buf, p.px.perm[lo:hi], pass == 3, ws)
	case 2:
		lo, hi := share(ny * nz)
		p.pairs.xPassKernelSlab(buf, kernel, lo*lw, hi*lw, true, ws)
	case 4:
		lo, hi := share(nx * ny)
		lu := ws.lu.Slice(0, nz*lw)
		for r := lo; r < hi; r++ {
			base := r * nz
			gatherStrided(lu, buf, base*lw, lw, lw, p.pz)
			p.pz.transformLanes(lu, true)
			vec := pairAccumulateVec(&t, lu, ws.lv, base, scale)
			for l := 0; l < pl.N && !vec; l++ {
				ar, ai := pl.A[l].Re[base:base+nz], pl.A[l].Im[base:base+nz]
				br, bi := pl.B[l].Re[base:base+nz], pl.B[l].Im[base:base+nz]
				cr, ci := pl.AccB[l].Re[base:base+nz], pl.AccB[l].Im[base:base+nz]
				dr, di := pl.AccA[l].Re, pl.AccA[l].Im
				if len(dr) != 0 {
					dr, di = dr[base:base+nz], di[base:base+nz]
				}
				for k := range cr {
					vr, vi := lu.Re[k*lw+l], lu.Im[k*lw+l]
					cr[k] += float64(scale * (float64(ar[k]*vr) - float64(ai[k]*vi)))
					ci[k] += float64(scale * (float64(ar[k]*vi) + float64(ai[k]*vr)))
					if len(dr) != 0 {
						dr[k] += float64(scale * (float64(br[k]*vr) + float64(bi[k]*vi)))
						di[k] += float64(scale * (float64(bi[k]*vr) - float64(br[k]*vi)))
					}
				}
			}
		}
	}
}
