package linalg

import (
	"fmt"

	"ptdft/internal/hostcpu"
)

// The AVX2 band-block kernels (linalg_amd64.s) and the only code that may
// call them. The assembly takes raw pointers and checks nothing, so the rule
// is internal/fourier's: a kernel is reached through exactly one Go wrapper
// in this file, and the wrapper asserts, before the call, every length the
// Go loop it replaces would have checked through its slicing. Selection is
// hostcpu.AVX2, set once at init from CPUID.

//go:noescape
func overlap4x4AVX2(sum *[32]float64, a, b *complex128, ng, pairs int)

//go:noescape
func applyMatrixAVX2(dst, src, u *complex128, nIn, nOut, ng, chunks int)

// overlapVec fills columns [0, nb&^3) of overlap rows i..i+3, one 4x4 block
// per kernel call, and returns nb&^3, the first column it leaves to the Go
// loop: 0 when it ran nothing. The kernel sums the points in pairs; an odd
// last point continues from its partial sums here, as overlapRow would.
func overlapVec(s, a, b []complex128, i, nb, ng int) int {
	if !hostcpu.AVX2 || nb < 4 || ng < 2 {
		return 0
	}
	nb4 := nb &^ 3
	if i < 0 || len(s) < (i+4)*nb || len(a) < (i+4)*ng || len(b) < nb4*ng {
		panic(fmt.Sprintf("linalg: overlap rows %d..%d of %d columns over %d points: s %d, a %d, b %d",
			i, i+3, nb, ng, len(s), len(a), len(b)))
	}
	var sum [32]float64
	for j := 0; j < nb4; j += 4 {
		overlap4x4AVX2(&sum, &a[i*ng], &b[j*ng], ng, ng/2)
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				re, im := sum[8*r+c], sum[8*r+4+c]
				if ng%2 == 1 {
					x, y := a[(i+r+1)*ng-1], b[(j+c+1)*ng-1]
					re += float64(real(x)*real(y)) + float64(imag(x)*imag(y))
					im += float64(real(x)*imag(y)) - float64(imag(x)*real(y))
				}
				s[(i+r)*nb+j+c] = complex(re, im)
			}
		}
	}
	return nb4
}

// applyMatrixVec computes points [0, ng&^7) of output band j of the
// rotation on the kernel and returns ng&^7, the first point it leaves to the
// Go loop: 0 when it ran nothing.
func applyMatrixVec(dst, src, u []complex128, j, nOut, nIn, ng int) int {
	if !hostcpu.AVX2 || ng < 8 || nIn < 1 {
		return 0
	}
	if j < 0 || j >= nOut || len(dst) < (j+1)*ng || len(src) < nIn*ng || len(u) < (nIn-1)*nOut+j+1 {
		panic(fmt.Sprintf("linalg: rotation band %d of %d from %d bands over %d points: dst %d, src %d, u %d",
			j, nOut, nIn, ng, len(dst), len(src), len(u)))
	}
	applyMatrixAVX2(&dst[j*ng], &src[0], &u[j], nIn, nOut, ng, ng/8)
	return ng &^ 7
}
