//go:build !amd64

package linalg

// No vector kernels on this GOARCH: hostcpu.AVX2 stays false and the Go loops
// in linalg.go are the only path.

func overlapVec(s, a, b []complex128, i, nb, ng int) int { return 0 }

func applyMatrixVec(dst, src, u []complex128, j, nOut, nIn, ng int) int { return 0 }
