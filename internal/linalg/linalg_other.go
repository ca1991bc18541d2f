//go:build !amd64

package linalg

// No vector kernels on this GOARCH: hostcpu.AVX2 stays false and the Go loops
// in linalg.go are the only path.

func overlapVec(s, a, b []complex128, i, j0, j1, nb, ng int) int { return j0 }

func applyMatrixVec(dst, src, u []complex128, j, nOut, nIn, ng int) int { return 0 }

func solveLowerVec(l, x []complex128, i, n, ng, lo, hi int, inv complex128) int { return lo }
