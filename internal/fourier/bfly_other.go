//go:build !amd64

package fourier

import "ptdft/internal/lanes"

// No vector kernels on this GOARCH: useAVX2 stays false and the Go loops in
// fftlanes.go and slab.go are the only path.

func combineVec(r, m, blocks int, dre, dim, twre, twim, rore, roim []float64) bool { return false }

func scatterRowsVec(dst lanes.Slab, b lanes.Slab, off, n, stride int) bool { return false }

func gatherRowsVec(b lanes.Slab, src lanes.Slab, off, n, stride int, perm []int) bool { return false }
