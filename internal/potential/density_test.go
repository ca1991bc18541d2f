package potential

import (
	"math"
	"runtime"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/parallel"
	"ptdft/internal/wavefunc"
)

// densityOracle is the density build Density replaced, kept as the
// reference: one unpruned dense-box FFT per band through the []complex128
// adapter, summed in band order.
func densityOracle(g *grid.Grid, bands []complex128, nb int, occ float64) []float64 {
	rho := make([]float64, g.NDTot)
	box := make([]complex128, g.NDTot)
	scale := 1 / math.Sqrt(g.Volume())
	for i := 0; i < nb; i++ {
		clear(box)
		for s, k := range g.SphereIdxD {
			box[k] = bands[i*g.NG+s]
		}
		g.DenseInverse(box, box)
		for j, v := range box {
			re, im := real(v)*scale, imag(v)*scale
			rho[j] += occ * (re*re + im*im)
		}
	}
	return rho
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestDensityMatchesFullFFTOracle(t *testing.T) {
	for _, tc := range []struct {
		cells [3]int
		ecut  float64
	}{
		{[3]int{1, 1, 1}, 2},
		{[3]int{1, 1, 1}, 3},
		{[3]int{1, 1, 1}, 6},
		{[3]int{2, 1, 1}, 3},
	} {
		g := grid.MustNew(lattice.MustSiliconSupercell(tc.cells[0], tc.cells[1], tc.cells[2]), tc.ecut)
		// nb and nb-3: a band count that is and one that is not a multiple
		// of the group width.
		for _, nb := range []int{g.Cell.NumBands(), g.Cell.NumBands() - 3} {
			psi := wavefunc.Random(g, nb, 7)
			got := Density(g, psi, nb, 2)
			want := densityOracle(g, psi, nb, 2)
			var diff, top float64
			for i := range want {
				diff = math.Max(diff, math.Abs(got[i]-want[i]))
				top = math.Max(top, math.Abs(want[i]))
			}
			if diff > 1e-13*top {
				t.Errorf("cells %v ecut %g nb %d: max |rho - oracle| = %g, %g of max rho", tc.cells, tc.ecut, nb, diff, diff/top)
			}
			if n, ne := IntegrateDensity(g, got), 2*float64(nb); math.Abs(n-ne) > 1e-10 {
				t.Errorf("cells %v ecut %g nb %d: integrated density %.13f, want %g", tc.cells, tc.ecut, nb, n, ne)
			}
		}
	}
}

// Density promises the same bytes run to run and for any worker count: the
// band-group fold fixes the summation order, workers only choose how many
// groups are in flight.
func TestDensityBitIdenticalAcrossRepeatsAndWorkers(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g := grid.MustNew(lattice.MustSiliconSupercell(2, 1, 1), 3)
	nb := g.Cell.NumBands() - 3 // 29 bands: three full groups and a short one
	psi := wavefunc.Random(g, nb, 3)
	ref := Density(g, psi, nb, 2)
	for _, w := range []int{1, 2, 4} {
		parallel.SetMaxWorkers(w)
		for rep := 0; rep < 5; rep++ {
			if rho := Density(g, psi, nb, 2); !sameBits(rho, ref) {
				t.Fatalf("workers %d repeat %d: density differs from the 1-worker build", w, rep)
			}
		}
	}
}

// The XC pass runs in fixed-size blocks folded in block order, so v_xc and
// E_xc are the same bits run to run and at any worker count.
func TestXCPotentialRepeatable(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g := si8(t, 3)
	nb := g.Cell.NumBands()
	rho := Density(g, wavefunc.Random(g, nb, 4), nb, 2)
	v0, e0 := XCPotential(rho, 1, g.DV())
	for _, w := range []int{1, 2, 4} {
		parallel.SetMaxWorkers(w)
		for rep := 0; rep < 5; rep++ {
			if v, e := XCPotential(rho, 1, g.DV()); e != e0 || !sameBits(v, v0) {
				t.Fatalf("workers %d repeat %d: Exc %.17g, one-worker call %.17g (v_xc same bits: %v)", w, rep, e, e0, sameBits(v, v0))
			}
		}
	}
}

// perRun reports mallocs and bytes allocated per call of f.
func perRun(runs int, f func()) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

var sink []float64

// Steady state at one worker, Density allocates the returned rho and nothing
// that grows with the band count or the dense box: the synthesis box, the
// group partial and the FFT scratch belong to the grid. The byte bound is
// 8*NDTot + 1 KB, with 8*NDTot taken as what the allocator charges for one
// rho-sized slice (it rounds up to a size class).
func TestDensityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	// One P, as testing.AllocsPerRun pins: sync.Pool caches are per P, and a
	// goroutine that migrates finds the other P's cache empty.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := grid.MustNew(lattice.MustSiliconSupercell(2, 1, 1), 3)
	nb := g.Cell.NumBands()
	psi := wavefunc.Random(g, nb, 5)
	sink = Density(g, psi, nb, 2) // warm the grid's scratch
	_, rhoBytes := perRun(10, func() { sink = make([]float64, g.NDTot) })
	allocs, bytes := perRun(10, func() { sink = Density(g, psi, nb, 2) })
	if allocs > 2 || bytes > rhoBytes+1024 {
		t.Errorf("Density on %d bands, NDTot %d: %.1f allocs/op, %.0f B/op; want <= 2 allocs and <= %.0f + 1024 B",
			nb, g.NDTot, allocs, bytes, rhoBytes)
	}
}
