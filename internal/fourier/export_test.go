package fourier

import "ptdft/internal/hostcpu"

// ForEachVec, GoFusesMulAdd and HostHasAVX2 expose the in-package test
// helpers to the external test package, which may import the solver
// packages that import this one.
var (
	ForEachVec    = forEachVec
	GoFusesMulAdd = goFusesMulAdd
)

// HostHasAVX2 reports whether the vector kernels run here (AVX2 and FMA).
func HostHasAVX2() bool { return hostcpu.AVX2 }
