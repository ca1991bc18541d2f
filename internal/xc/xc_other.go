//go:build !amd64

package xc

// No vector kernel on this GOARCH: LDA is the only path.
func ldaVec(eps, v, rho []float64, exScale float64) int { return 0 }
