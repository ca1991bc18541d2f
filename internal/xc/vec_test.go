package xc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptdft/internal/hostcpu"
)

// ldaEdges are the densities at the kernel's lane tests and math.Cbrt's
// special cases: the 1e-14 cutoff and rs = 1 (rho = 3/(4 pi)) with their
// neighbours, zeros, negatives, subnormals, NaN and the infinities.
func ldaEdges() []float64 {
	e := []float64{0, math.Copysign(0, -1), -1e-3, -1, -math.MaxFloat64, 5e-324, 0x1p-1030, -5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022}
	for _, c := range []float64{1e-14, 3 / (4 * math.Pi)} {
		lo, hi := c, c
		for k := 0; k < 4; k++ {
			e = append(e, lo, hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
		}
	}
	return e
}

// ldaLogUniform returns n densities log-uniform in [lo, hi].
func ldaLogUniform(rng *rand.Rand, n int, lo, hi float64) []float64 {
	rho := make([]float64, n)
	for i := range rho {
		rho[i] = lo * math.Pow(hi/lo, rng.Float64())
	}
	return rho
}

// ldaMismatch runs the kernel over rho and then LDAPoints, and describes
// the first point where the kernel leaves unmarked (eps not NaN) a lane
// LDA's rs >= 1 branch does not take, or a lane that branch takes is not
// LDA's bits (unless LDA's eps is NaN too, as with a NaN exScale, and the
// kernel marked it), or LDAPoints is not LDA's bits; "" if none.
func ldaMismatch(rho []float64, exScale float64) string {
	eps, v := make([]float64, len(rho)), make([]float64, len(rho))
	defer func(host bool) { hostcpu.AVX2 = host }(hostcpu.AVX2)
	hostcpu.AVX2 = true
	n := ldaVec(eps, v, rho, exScale)
	for i, r := range rho[:n] {
		we, wv := LDA(r, exScale)
		takes := r > 1e-14 && r < math.Inf(1) && rs1/math.Cbrt(r) >= 1
		marked := eps[i] != eps[i]
		same := math.Float64bits(eps[i]) == math.Float64bits(we) && math.Float64bits(v[i]) == math.Float64bits(wv)
		if !takes && !marked || takes && !same && !(marked && we != we) {
			return fmt.Sprintf("exScale %g, rho %g (LDA's rs >= 1 branch: %v): kernel eps %g, v %g; LDA %g, %g", exScale, r, takes, eps[i], v[i], we, wv)
		}
	}
	LDAPoints(eps, v, rho, exScale)
	for i, r := range rho {
		if we, wv := LDA(r, exScale); math.Float64bits(eps[i]) != math.Float64bits(we) || math.Float64bits(v[i]) != math.Float64bits(wv) {
			return fmt.Sprintf("exScale %g, rho %g: LDAPoints eps %g, v %g; LDA %g, %g", exScale, r, eps[i], v[i], we, wv)
		}
	}
	return ""
}

// The kernel against LDA, bit for bit on eps and v: 2^20 densities
// log-uniform over [1e-16, 10], both PZ81 branches and the cutoff, then the
// edge values at every slice length mod 4 and every alignment, at exScale 1
// and the hybrid's 0.75.
func TestLDAPointsBitIdentical(t *testing.T) {
	if !hostcpu.AVX2 {
		t.Skip("host has no AVX2 and FMA (or GOARCH is not amd64): LDA is the only path, nothing to compare")
	}
	rho := ldaLogUniform(rand.New(rand.NewSource(1)), 1<<20, 1e-16, 10)
	edges := ldaEdges()
	for _, exScale := range []float64{1, 0.75} {
		if m := ldaMismatch(rho, exScale); m != "" {
			t.Fatal(m)
		}
		for lo := 0; lo < 4; lo++ {
			for hi := len(edges) - 4; hi <= len(edges); hi++ {
				if m := ldaMismatch(edges[lo:hi], exScale); m != "" {
					t.Fatalf("edges[%d:%d]: %s", lo, hi, m)
				}
			}
		}
	}
}

// The kernel checks nothing, so LDAPoints must refuse a short eps or v
// before it runs.
func TestLDAPointsSizeMismatchPanics(t *testing.T) {
	rho := make([]float64, 8)
	for name, f := range map[string]func(){
		"short eps": func() { LDAPoints(make([]float64, 7), make([]float64, 8), rho, 1) },
		"short v":   func() { LDAPoints(make([]float64, 8), make([]float64, 7), rho, 1) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "xc: LDAPoints buffer size mismatch" {
					t.Errorf("%s: panic %v, want the buffer size mismatch", name, r)
				}
			}()
			f()
		}()
	}
}

// FuzzLDALanes: any four densities and any exchange scale give LDA's bits,
// each density in two lanes of the kernel and c also in the Go tail.
func FuzzLDALanes(f *testing.F) {
	if !hostcpu.AVX2 {
		f.Skip("host has no AVX2 and FMA (or GOARCH is not amd64): LDA is the only path, nothing to compare")
	}
	f.Add(0.05, 1e-14, 0.3, 1e-3, 1.0)
	f.Add(3/(4*math.Pi), math.NaN(), 0.0, 5e-324, 0.75)
	f.Add(0.01, 0.02, math.Inf(1), 0.05, math.NaN())
	f.Fuzz(func(t *testing.T, a, b, c, d, exScale float64) {
		rho := []float64{a, b, c, d, b, c, d, a, c}
		if m := ldaMismatch(rho, exScale); m != "" {
			t.Fatal(m)
		}
	})
}

// The kernel's exact bits(x)/3 (xc_amd64.s), step for step: y = h*2^32 + l
// has y/3 = h*0x55555555 + (h + l)/3, once for bits(x) and once for its
// h + l, and VPMULUDQ multiplies the low 32 bits, so the last quotient
// (z*0xAAAAAAAB) >> 33 is exact only if z < 2^32. 2^23 random bit
// patterns below 2^63 (any non-negative float64), half with a low word near
// 2^32, and the extremes.
func TestKernelDivideByThree(t *testing.T) {
	lo32 := func(u uint64) uint64 { return u & 0xFFFFFFFF }
	div3 := func(u uint64) uint64 {
		h, l := u>>32, lo32(u)
		q := lo32(h) * 0x55555555
		y := h + l
		h, z := y>>32, lo32(y)+y>>32
		return q + lo32(h)*0x55555555 + lo32(z)*0xAAAAAAAB>>33
	}
	us := []uint64{0, 1, 2, 3, 1<<63 - 1, 1<<32 - 1, 1 << 32, 3 << 32, 1<<63 - 1<<32, 0x7FFFFFFF_FFFFFFFE}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1<<22; i++ {
		us = append(us, rng.Uint64()>>1, rng.Uint64()>>1|0xFFFFFFF0)
	}
	for _, u := range us {
		if got := div3(u); got != u/3 {
			t.Fatalf("bits %#x: kernel quotient %#x, want %#x", u, got, u/3)
		}
	}
}

// BenchmarkLDA times LDAPoints per point on 2^16 densities in silicon's
// range [1e-6, 0.1], on the Go loop and, where the host has it, the kernel.
func BenchmarkLDA(b *testing.B) {
	rho := ldaLogUniform(rand.New(rand.NewSource(3)), 1<<16, 1e-6, 0.1)
	eps, v := make([]float64, len(rho)), make([]float64, len(rho))
	defer func(host bool) { hostcpu.AVX2 = host }(hostcpu.AVX2)
	host := hostcpu.AVX2
	for _, path := range []struct {
		name string
		vec  bool
	}{{"go", false}, {"avx2", true}} {
		if path.vec && !host {
			continue
		}
		b.Run(path.name, func(b *testing.B) {
			hostcpu.AVX2 = path.vec
			for i := 0; i < b.N; i++ {
				LDAPoints(eps, v, rho, 0.75)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rho)), "ns/point")
		})
	}
}
