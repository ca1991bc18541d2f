package fourier

import (
	"fmt"

	"ptdft/internal/hostcpu"
	"ptdft/internal/lanes"
)

// The AVX2 lane kernels (bfly_amd64.s) and the only code that may call
// them. The assembly takes raw pointers and checks nothing, so the rule is:
// a kernel is reached through exactly one Go wrapper in this file, and the
// wrapper asserts, before the call, every length the Go loop it replaces
// would have checked through its (*[Width]float64) conversions and table
// indexing. Selection is the host's business, never the user's: hostcpu.AVX2
// is set once, at init, from CPUID.

//go:noescape
func bfly2AVX2(dre, dim, twre, twim *float64, m, blocks int)

//go:noescape
func bfly3AVX2(dre, dim, twre, twim *float64, m, blocks int, c1, n1 float64)

//go:noescape
func bfly4AVX2(dre, dim, twre, twim *float64, m, blocks int, inverse bool)

//go:noescape
func bfly7AVX2(dre, dim, twre, twim *float64, m, blocks int, c1, c2, c3, c4, c6, n1, n2, n3, n4, n6 float64)

//go:noescape
func scatterRows8AVX2(dre, dim, sre, sim *float64, n, stride int)

//go:noescape
func gatherRows8AVX2(dre, dim, sre, sim *float64, perm *int, n, stride int)

// combineVec runs the radix-r combine of one stage over `blocks`
// consecutive stage blocks (each r sub-transforms of m rows, already in
// dre/dim) on the vector kernels and reports whether it did; false leaves
// the blocks untouched for the Go loops. Radix 5 has no kernel: no workload
// the benchmark runs has a factor-5 axis, so one would be unmeasured code.
func combineVec(r, m, blocks int, dre, dim, twre, twim, rore, roim []float64) bool {
	if !hostcpu.AVX2 || r == 5 {
		return false
	}
	if n := r * m; m < 1 || blocks < 1 || len(dre) < blocks*n*lw || len(dim) < blocks*n*lw || len(twre) < n || len(twim) < n {
		panic(fmt.Sprintf("fourier: radix-%d stage of %d blocks of %d rows: data %d/%d floats, twiddles %d/%d",
			r, blocks, m, len(dre), len(dim), len(twre), len(twim)))
	}
	switch r {
	case 2:
		bfly2AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m, blocks)
	case 3:
		bfly3AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m, blocks, rore[1], roim[1])
	case 4:
		bfly4AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m, blocks, roim[1] > 0)
	case 7:
		bfly7AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m, blocks,
			rore[1], rore[2], rore[3], rore[4], rore[6], roim[1], roim[2], roim[3], roim[4], roim[6])
	}
	return true
}

// scatterRowsVec copies the n rows of a lane block, row k to
// dst[off+k*stride:], in both halves of the slabs, and reports whether it
// did.
func scatterRowsVec(dst lanes.Slab, b lanes.Slab, off, n, stride int) bool {
	if !hostcpu.AVX2 {
		return false
	}
	if n < 1 {
		return true
	}
	if end := off + (n-1)*stride + lw; off < 0 || stride < 0 || end > len(dst.Re) || end > len(dst.Im) ||
		n*lw > len(b.Re) || n*lw > len(b.Im) {
		panic(fmt.Sprintf("fourier: %d rows of a %d/%d block to [%d, %d) of a %d/%d slab",
			n, len(b.Re), len(b.Im), off, end, len(dst.Re), len(dst.Im)))
	}
	scatterRows8AVX2(&dst.Re[off], &dst.Im[off], &b.Re[0], &b.Im[0], n, stride)
	return true
}

// gatherRowsVec fills the n rows of a lane block, row k with the Width
// values at src[off+perm[k]*stride:], in both halves of the slabs, and
// reports whether it did.
func gatherRowsVec(b lanes.Slab, src lanes.Slab, off, n, stride int, perm []int) bool {
	if !hostcpu.AVX2 {
		return false
	}
	if n < 1 {
		return true
	}
	if n > len(perm) {
		panic(fmt.Sprintf("fourier: %d permuted rows from a table of %d", n, len(perm)))
	}
	lo, hi := perm[0], perm[0]
	for _, j := range perm[:n] {
		lo, hi = min(lo, j), max(hi, j)
	}
	if sEnd := off + hi*stride + lw; n*lw > len(b.Re) || n*lw > len(b.Im) || off < 0 || stride < 0 || lo < 0 ||
		sEnd > len(src.Re) || sEnd > len(src.Im) {
		panic(fmt.Sprintf("fourier: %d rows at offsets %d..%d, stride %d, from %d: a %d/%d block and a %d/%d slab",
			n, lo, hi, stride, off, len(b.Re), len(b.Im), len(src.Re), len(src.Im)))
	}
	gatherRows8AVX2(&b.Re[0], &b.Im[0], &src.Re[off], &src.Im[off], &perm[0], n, stride)
	return true
}

//go:noescape
func pairProductsAVX2(vre, vim, wre, wim *float64, tab **float64, zinv *int, nz, n, base int)

//go:noescape
func pairAccumulateAVX2(vre, vim, wre, wim *float64, tab **float64, nz, n, base int, scale float64)

// pairRows is the pair kernels' view of a PairLanes: lane l's operand and
// accumulator halves by their first element (nil from n on and for an
// empty AccA), each checked by bindPairRows to hold size points, and zinv,
// checked to map a z-row onto its lane block. The zero value runs no kernel.
type pairRows struct {
	ptr     [8][lw]*float64 // A.Re, A.Im, B.Re, B.Im, AccB.Re, AccB.Im, AccA.Re, AccA.Im
	n, size int
	zinv    []int
}

func bindPairRows(t *pairRows, pl *PairLanes, size int, zinv []int) {
	if !hostcpu.AVX2 {
		return
	}
	bad := pl.N < 1 || pl.N > lw || len(zinv) > size
	for _, k := range zinv {
		bad = bad || k < 0 || k >= len(zinv)
	}
	for l := 0; l < pl.N && !bad; l++ {
		for h, s := range [4]lanes.Slab{pl.A[l], pl.B[l], pl.AccB[l], pl.AccA[l]} {
			if h == 3 && s.Len() == 0 {
				break
			}
			if bad = len(s.Re) < size || len(s.Im) < size; bad {
				break
			}
			t.ptr[2*h][l], t.ptr[2*h+1][l] = &s.Re[0], &s.Im[0]
		}
	}
	if bad {
		panic(fmt.Sprintf("fourier: %d pairs over %d-point rows of a %d-point grid: a lane count, slab or row out of range", pl.N, len(zinv), size))
	}
	t.n, t.size, t.zinv = pl.N, size, zinv
}

// pairRow reports whether the kernels take the z-row at base, after
// checking it against t and its lane block v and scratch w.
func (t *pairRows) pairRow(v, w lanes.Slab, base int) bool {
	nz := len(t.zinv)
	ok := t.n > 0 && nz >= 4
	if ok && (base < 0 || base+nz > t.size || min(len(v.Re), len(v.Im), len(w.Re), len(w.Im)) < nz*lw) {
		panic(fmt.Sprintf("fourier: z-row at %d of a %d-point grid, block %d/%d, scratch %d/%d", base, t.size, len(v.Re), len(v.Im), len(w.Re), len(w.Im)))
	}
	return ok
}

// pairProductsVec fills lanes l < n of v, the z-row at base's lane block:
// row zinv[j] takes conj(A_l)⊙B_l at point base+j. w is scratch of v's
// size. It reports whether it did.
func pairProductsVec(t *pairRows, v, w lanes.Slab, base int) bool {
	ok := t.pairRow(v, w, base)
	if ok {
		pairProductsAVX2(&v.Re[0], &v.Im[0], &w.Re[0], &w.Im[0], &t.ptr[0][0], &t.zinv[0], len(t.zinv), t.n, base)
	}
	return ok
}

// pairAccumulateVec does the z-row at base's accumulations from its
// inverse-transformed lane block v, lane after lane: AccB_l +=
// scale*A_l⊙v_l and, where bound, AccA_l += scale*B_l⊙conj(v_l). w is
// scratch of v's size. It reports whether it did.
func pairAccumulateVec(t *pairRows, v, w lanes.Slab, base int, scale float64) bool {
	ok := t.pairRow(v, w, base)
	if ok {
		pairAccumulateAVX2(&v.Re[0], &v.Im[0], &w.Re[0], &w.Im[0], &t.ptr[0][0], len(t.zinv), t.n, base, scale)
	}
	return ok
}
