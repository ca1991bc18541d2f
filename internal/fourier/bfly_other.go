//go:build !amd64

package fourier

import "ptdft/internal/lanes"

// No vector kernels on this GOARCH: useAVX2 stays false and the Go loops in
// fftlanes.go and slab.go are the only path.

func combineVec(r, m int, dre, dim, twre, twim, rore, roim []float64) bool { return false }

func copyRowsVec(dst lanes.Slab, dOff, dStride int, src lanes.Slab, sOff, sStride, n int) bool {
	return false
}
