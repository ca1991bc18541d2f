package hostcpu

func init() { AVX2 = hasAVX2FMA() }

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// ymm state across context switches (OSXSAVE set, XCR0 enabling both the
// SSE and AVX state components) - the same three-step test as the runtime's
// internal/cpu, which a module cannot import. The fourier kernels fuse every
// multiply-add the Go loops write as math.FMA, so a CPU without FMA
// (CPUID.1:ECX bit 12) runs the Go loops.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
