// Package hostcpu holds the one switch that selects the AVX2 kernels of
// internal/fourier and internal/linalg over their Go loops. It is set once,
// at init, from what the CPU reports (hostcpu_amd64.go) and stays false on
// every other GOARCH; no flag, environment variable or Spec field reaches
// it. Both paths produce the same bits, so the only writers after init are
// those packages' tests, which flip it to run the Go loops as the oracle.
package hostcpu

// AVX2 reports whether the vector kernels run: the CPU has AVX2 and FMA and
// the OS saves the ymm state across context switches.
var AVX2 bool
