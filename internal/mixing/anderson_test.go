package mixing

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
)

// linearFixedPoint builds the residual f(x) = b - A x for a well-conditioned
// SPD-like complex system; the fixed point solves A x = b.
func linearFixedPoint(n int, seed int64) (apply func(x []complex128) []complex128, solution []complex128) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = complex(1.5+rng.Float64(), 0)
		for j := i + 1; j < n; j++ {
			v := complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()) / complex(float64(n), 0)
			a[i*n+j] = v
			a[j*n+i] = cmplx.Conj(v)
		}
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	matVec := func(xx []complex128) []complex128 {
		ax := make([]complex128, n)
		for i := range ax {
			for j, v := range xx {
				ax[i] += a[i*n+j] * v
			}
		}
		return ax
	}
	b := matVec(x)
	apply = func(xx []complex128) []complex128 {
		ax := matVec(xx)
		f := make([]complex128, n)
		for i := range f {
			f[i] = b[i] - ax[i]
		}
		return f
	}
	return apply, x
}

func resNorm(f []complex128) float64 {
	var s float64
	for _, v := range f {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

func TestAndersonSolvesLinearSystem(t *testing.T) {
	n := 20
	residual, want := linearFixedPoint(n, 3)
	a := NewAnderson(10, 0.5)
	x := make([]complex128, n)
	var final float64
	for it := 0; it < 60; it++ {
		f := residual(x)
		final = resNorm(f)
		if final < 1e-10 {
			break
		}
		x = a.Mix(x, f)
	}
	if final > 1e-8 {
		t.Fatalf("Anderson did not converge: residual %g", final)
	}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("solution wrong at %d", i)
		}
	}
}

func TestAndersonBeatsSimpleMixing(t *testing.T) {
	n := 30
	residual, _ := linearFixedPoint(n, 5)
	iterate := func(useAnderson bool) int {
		a := NewAnderson(12, 0.4)
		x := make([]complex128, n)
		for it := 0; it < 200; it++ {
			f := residual(x)
			if resNorm(f) < 1e-9 {
				return it
			}
			if useAnderson {
				x = a.Mix(x, f)
			} else {
				for i := range x {
					x[i] += complex(0.4, 0) * f[i]
				}
			}
		}
		return 200
	}
	and := iterate(true)
	simple := iterate(false)
	if and >= simple {
		t.Errorf("Anderson (%d iters) not faster than simple mixing (%d)", and, simple)
	}
}

func TestAndersonHistoryCap(t *testing.T) {
	a := NewAnderson(3, 0.5)
	x := make([]complex128, 4)
	f := make([]complex128, 4)
	for i := 0; i < 10; i++ {
		f[0] = complex(float64(i+1), 0)
		x = a.Mix(x, f)
		if len(a.xs) > 3 {
			t.Fatalf("history grew to %d beyond cap 3", len(a.xs))
		}
	}
	if len(a.xs) != 3 {
		t.Errorf("history %d, want 3", len(a.xs))
	}
	a.Reset()
	if len(a.xs) != 0 {
		t.Error("Reset did not clear history")
	}
}

func TestAndersonFirstStepIsSimpleMixing(t *testing.T) {
	a := NewAnderson(5, 0.7)
	x := []complex128{1, 2}
	f := []complex128{complex(0.5, 0), complex(-0.5, 0)}
	got := a.Mix(x, f)
	want := []complex128{complex(1.35, 0), complex(1.65, 0)}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("first step = %v, want %v", got, want)
		}
	}
}

func TestAndersonCoefficientsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := NewAnderson(6, 0.5)
		n := 8
		x := make([]complex128, n)
		for step := 0; step < 5; step++ {
			fv := make([]complex128, n)
			for i := range fv {
				fv[i] = complex(local.NormFloat64(), local.NormFloat64())
			}
			x = a.Mix(x, fv)
		}
		c := a.coefficients(len(a.xs))
		var sum complex128
		for _, v := range c {
			sum += v
		}
		return cmplx.Abs(sum-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestBandMixerIndependence(t *testing.T) {
	// Two bands with different linear problems must each converge.
	ng := 10
	res0, want0 := linearFixedPoint(ng, 11)
	res1, want1 := linearFixedPoint(ng, 12)
	bm := NewBandMixer(2, ng, 10, 0.5)
	x := make([]complex128, 2*ng)
	for it := 0; it < 80; it++ {
		f := make([]complex128, 2*ng)
		copy(f[:ng], res0(x[:ng]))
		copy(f[ng:], res1(x[ng:]))
		if resNorm(f) < 1e-10 {
			break
		}
		x = bm.Mix(x, f)
	}
	for i := 0; i < ng; i++ {
		if cmplx.Abs(x[i]-want0[i]) > 1e-6 || cmplx.Abs(x[ng+i]-want1[i]) > 1e-6 {
			t.Fatal("band mixer failed to converge both bands")
		}
	}
	if historyLen(bm) == 0 {
		t.Error("BandMixer recorded no history")
	}
	bm.Reset()
	if historyLen(bm) != 0 {
		t.Error("BandMixer history not empty after reset")
	}
}

// historyLen totals the history depth across a BandMixer's bands.
func historyLen(bm *BandMixer) int {
	n := 0
	for _, m := range bm.mixers {
		n += len(m.xs)
	}
	return n
}

func TestRealMixerDensityStyle(t *testing.T) {
	// Fixed point: x = 0.3 + 0.5*x (solution 0.6), elementwise.
	rm := NewRealMixer(5, 0.5)
	x := make([]float64, 6)
	for it := 0; it < 50; it++ {
		f := make([]float64, 6)
		for i := range f {
			f[i] = 0.3 + 0.5*x[i] - x[i]
		}
		x = rm.Mix(x, f)
	}
	for i := range x {
		if math.Abs(x[i]-0.6) > 1e-8 {
			t.Fatalf("real mixer fixed point %g, want 0.6", x[i])
		}
	}
}

// The Gram matrix the mixer carries from call to call must be, bit for bit,
// the one m^2 inner products over the current history give - through the
// growth phase, through every shift once the history is full (maxHist 4,
// 30 calls) and across a Reset.
func TestAndersonGramIncrementalMatchesFromScratch(t *testing.T) {
	const n, maxHist = 40, 4
	rng := rand.New(rand.NewSource(23))
	a := NewAnderson(maxHist, 0.5)
	check := func(call int) {
		t.Helper()
		m := len(a.xs)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				want := linalg.Dot(a.fs[i], a.fs[j])
				if got := a.gram[i*maxHist+j]; got != want {
					t.Fatalf("call %d, history %d: gram[%d][%d] = %v, from scratch %v", call, m, i, j, got, want)
				}
			}
		}
	}
	for call := 0; call < 30; call++ {
		if call == 17 {
			a.Reset()
		}
		x, f := make([]complex128, n), make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			f[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		a.Mix(x, f)
		check(call)
	}
}

// A mixer kept across problems (Reset, recycled history vectors, the
// iterate written over x) must produce the bits of a fresh mixer's Mix.
func TestMixIntoRecycledMatchesFresh(t *testing.T) {
	const nb, ng, maxHist = 3, 17, 4
	rng := rand.New(rand.NewSource(29))
	kept := NewBandMixer(nb, ng, maxHist, 0.4)
	for problem := 0; problem < 3; problem++ {
		kept.Reset()
		fresh := NewBandMixer(nb, ng, maxHist, 0.4)
		x := make([]complex128, nb*ng)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		inPlace := append([]complex128(nil), x...)
		for call := 0; call < 7; call++ {
			f := make([]complex128, nb*ng)
			for i := range f {
				f[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			x = fresh.Mix(x, f)
			kept.MixInto(inPlace, inPlace, f)
			for i := range x {
				if x[i] != inPlace[i] {
					t.Fatalf("problem %d call %d: kept mixer gives %v at %d, fresh %v", problem, call, inPlace[i], i, x[i])
				}
			}
		}
	}
	// One worker: the bands mix inline, so only the mixer itself can allocate.
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	before := historyLen(kept)
	var m0, m1 runtime.MemStats
	kept.Reset()
	x, f := make([]complex128, nb*ng), make([]complex128, nb*ng)
	runtime.ReadMemStats(&m0)
	for call := 0; call < 7; call++ {
		kept.MixInto(x, x, f)
	}
	runtime.ReadMemStats(&m1)
	if got := historyLen(kept); got != before {
		t.Errorf("history holds %d vectors after a recycled problem, %d before", got, before)
	}
	// Less than one band vector per call: nothing was recorded into new memory.
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 7*ng*16 {
		t.Errorf("a warm mixer allocated %d bytes over 7 calls", b)
	}
}
