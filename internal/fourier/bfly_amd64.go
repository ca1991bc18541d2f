package fourier

import (
	"fmt"

	"ptdft/internal/lanes"
)

// The AVX2 lane kernels (bfly_amd64.s) and the only code that may call
// them. The assembly takes raw pointers and checks nothing, so the rule is:
// a kernel is reached through exactly one Go wrapper in this file, and the
// wrapper asserts, before the call, every length the Go loop it replaces
// would have checked through its (*[Width]float64) conversions and table
// indexing. Selection is the host's business, never the user's: useAVX2 is
// set once, here, from CPUID.

func init() { useAVX2 = hasAVX2() }

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm state
// across context switches (OSXSAVE set, XCR0 enabling both the SSE and AVX
// state components) - the same three-step test as the runtime's
// internal/cpu, which a module cannot import.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

//go:noescape
func bfly2AVX2(dre, dim, twre, twim *float64, m int)

//go:noescape
func bfly3AVX2(dre, dim, twre, twim *float64, m int, w1r, w1i, w2r, w2i float64)

//go:noescape
func bfly4AVX2(dre, dim, twre, twim *float64, m int, jr, ji float64)

//go:noescape
func copyRows8AVX2(dre, dim, sre, sim *float64, n, dstStride, srcStride int)

// combineVec runs the radix-r combine of one stage block (r sub-transforms
// of m rows each, already in dre/dim) on the vector kernels and reports
// whether it did; false leaves the block untouched for the Go loops.
func combineVec(r, m int, dre, dim, twre, twim, rore, roim []float64) bool {
	if !useAVX2 || r > 4 {
		return false
	}
	if n := r * m; m < 1 || len(dre) < n*lw || len(dim) < n*lw || len(twre) < n || len(twim) < n {
		panic(fmt.Sprintf("fourier: radix-%d stage of %d rows: data %d/%d floats, twiddles %d/%d",
			r, m, len(dre), len(dim), len(twre), len(twim)))
	}
	switch r {
	case 2:
		bfly2AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m)
	case 3:
		bfly3AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m, rore[1], roim[1], rore[2], roim[2])
	case 4:
		bfly4AVX2(&dre[0], &dim[0], &twre[0], &twim[0], m, rore[1], roim[1])
	}
	return true
}

// copyRowsVec copies n rows of Width values, row k from src[sOff+k*sStride:]
// to dst[dOff+k*dStride:], in both halves of the slabs, and reports whether
// it did.
func copyRowsVec(dst lanes.Slab, dOff, dStride int, src lanes.Slab, sOff, sStride, n int) bool {
	if !useAVX2 {
		return false
	}
	if n < 1 {
		return true
	}
	dEnd := dOff + (n-1)*dStride + lw
	sEnd := sOff + (n-1)*sStride + lw
	if dOff < 0 || sOff < 0 || dStride < 0 || sStride < 0 ||
		dEnd > len(dst.Re) || dEnd > len(dst.Im) || sEnd > len(src.Re) || sEnd > len(src.Im) {
		panic(fmt.Sprintf("fourier: %d strided rows reach [%d, %d) of a %d/%d slab and [%d, %d) of a %d/%d slab",
			n, dOff, dEnd, len(dst.Re), len(dst.Im), sOff, sEnd, len(src.Re), len(src.Im)))
	}
	copyRows8AVX2(&dst.Re[dOff], &dst.Im[dOff], &src.Re[sOff], &src.Im[sOff], n, dStride, sStride)
	return true
}
