//go:build !amd64

package fourier

import "ptdft/internal/lanes"

// No vector kernels on this GOARCH: hostcpu.AVX2 stays false and the Go loops in
// fftlanes.go and slab.go are the only path.

func combineVec(r, m, blocks int, dre, dim, twre, twim, rore, roim []float64) bool { return false }

func scatterRowsVec(dst lanes.Slab, b lanes.Slab, off, n, stride int) bool { return false }

func gatherRowsVec(b lanes.Slab, src lanes.Slab, off, stride int, pl *Plan) bool { return false }

func addNorm2RowsVec(acc []float64, b lanes.Slab, off, n, stride int) bool { return false }

func lanesVec(b, s lanes.Slab, bases *[lw]int, n, stride int, pl *Plan) bool { return false }

type pairRows struct{}

func bindPairRows(t *pairRows, pl *PairLanes, p *Plan3) {}

func pairProductsVec(t *pairRows, v, w lanes.Slab, base int) bool { return false }

func pairAccumulateVec(t *pairRows, v, w lanes.Slab, base int, scale float64) bool { return false }
