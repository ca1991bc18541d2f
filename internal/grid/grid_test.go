package grid

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
)

func si8Grid(t *testing.T, ecut float64) *Grid {
	t.Helper()
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g, err := New(cell, ecut)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPaperGridDimensions(t *testing.T) {
	// Section 4: Si1536 = 4x6x8 unit cells, Ecut = 10 Ha gives a
	// wavefunction grid of 60x90x120 (NG = 648,000 reported as the box
	// size) and a charge density grid of 120x180x240.
	cell := lattice.MustSiliconSupercell(4, 6, 8)
	g, err := New(cell, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != [3]int{60, 90, 120} {
		t.Errorf("wavefunction grid = %v, paper reports 60x90x120", g.N)
	}
	if g.ND != [3]int{120, 180, 240} {
		t.Errorf("density grid = %v, paper reports 120x180x240", g.ND)
	}
	if g.NTot != 648000 {
		t.Errorf("NTot = %d, paper reports 648000", g.NTot)
	}
	if cell.NumAtoms() != 1536 {
		t.Errorf("atoms = %d, want 1536", cell.NumAtoms())
	}
	if cell.NumBands() != 3072 {
		t.Errorf("bands = %d, paper reports 3072 occupied wavefunctions", cell.NumBands())
	}
}

func TestSphereWithinCutoff(t *testing.T) {
	g := si8Grid(t, 5)
	if g.NG == 0 {
		t.Fatal("empty G sphere")
	}
	for i, g2 := range g.G2 {
		if g2/2 > g.Ecut+1e-12 {
			t.Fatalf("sphere entry %d above cutoff: %g", i, g2/2)
		}
	}
	// G=0 must be present.
	found := false
	for _, g2 := range g.G2 {
		if g2 == 0 {
			found = true
		}
	}
	if !found {
		t.Error("G=0 not in sphere")
	}
}

func TestSphereClosedUnderNegation(t *testing.T) {
	g := si8Grid(t, 5)
	type key [3]int
	set := make(map[key]bool, g.NG)
	for _, m := range g.MillerIdx {
		set[key{m[0], m[1], m[2]}] = true
	}
	for _, m := range g.MillerIdx {
		if !set[key{-m[0], -m[1], -m[2]}] {
			t.Fatalf("sphere not symmetric: missing -G for %v", m)
		}
	}
}

func TestToRealFromRealRoundTrip(t *testing.T) {
	g := si8Grid(t, 4)
	rng := rand.New(rand.NewSource(1))
	c := make([]complex128, g.NG)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	box := lanes.New(g.NTot)
	ws := g.Plan.NewWorkspace()
	g.ToRealSlabWS(box, c, ws)
	c2 := make([]complex128, g.NG)
	g.FromRealSlabWS(c2, box, ws)
	for i := range c {
		if cmplx.Abs(c[i]-c2[i]) > 1e-10 {
			t.Fatalf("round trip differs at %d: %v vs %v", i, c[i], c2[i])
		}
	}
}

// ToRealSerial is the step path's ToRealSlabWS in the interleaved layout:
// the same bits, point for point.
func TestToRealSerialMatchesSlab(t *testing.T) {
	g := si8Grid(t, 4)
	rng := rand.New(rand.NewSource(2))
	c := make([]complex128, g.NG)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	a := lanes.New(g.NTot)
	b := make([]complex128, g.NTot)
	g.ToRealSlabWS(a, c, g.Plan.NewWorkspace())
	g.ToRealSerial(b, c)
	for i := range b {
		if b[i] != complex(a.Re[i], a.Im[i]) {
			t.Fatalf("ToRealSerial differs from ToRealSlabWS at %d: %v vs (%v, %v)", i, b[i], a.Re[i], a.Im[i])
		}
	}
}

func TestNormalizationParseval(t *testing.T) {
	// A normalized sphere vector must integrate |psi|^2 to 1 on both boxes.
	g := si8Grid(t, 4)
	rng := rand.New(rand.NewSource(3))
	c := make([]complex128, g.NG)
	var norm float64
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(c[i])*real(c[i]) + imag(c[i])*imag(c[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range c {
		c[i] *= s
	}
	box := make([]complex128, g.NTot)
	g.ToRealSerial(box, c)
	var integral float64
	for _, v := range box {
		integral += real(v)*real(v) + imag(v)*imag(v)
	}
	integral *= g.DVWave()
	if math.Abs(integral-1) > 1e-10 {
		t.Errorf("wave box norm integral = %g, want 1", integral)
	}
	integral = 0
	for _, v := range toRealDense(g, c) {
		integral += real(v)*real(v) + imag(v)*imag(v)
	}
	integral *= g.DV()
	if math.Abs(integral-1) > 1e-10 {
		t.Errorf("dense box norm integral = %g, want 1", integral)
	}
}

func TestDenseForwardInverseRoundTrip(t *testing.T) {
	g := si8Grid(t, 3)
	rng := rand.New(rand.NewSource(4))
	f := make([]complex128, g.NDTot)
	for i := range f {
		f[i] = complex(rng.NormFloat64(), 0)
	}
	coeff := make([]complex128, g.NDTot)
	g.DenseForward(coeff, f)
	back := make([]complex128, g.NDTot)
	g.DenseInverse(back, coeff)
	for i := range f {
		if cmplx.Abs(f[i]-back[i]) > 1e-10 {
			t.Fatalf("dense round trip differs at %d", i)
		}
	}
}

func TestDenseForwardConstantField(t *testing.T) {
	g := si8Grid(t, 3)
	f := make([]complex128, g.NDTot)
	for i := range f {
		f[i] = 2.5
	}
	coeff := make([]complex128, g.NDTot)
	g.DenseForward(coeff, f)
	// Only the G=0 coefficient (linear index 0) should be nonzero.
	if cmplx.Abs(coeff[0]-2.5) > 1e-10 {
		t.Errorf("G=0 coefficient = %v, want 2.5", coeff[0])
	}
	for i := 1; i < len(coeff); i++ {
		if cmplx.Abs(coeff[i]) > 1e-10 {
			t.Fatalf("nonzero coefficient at %d: %v", i, coeff[i])
		}
	}
}

func TestWaveToDensePlaneWave(t *testing.T) {
	// A single low-G plane wave on the dense grid, carried to the wave box
	// through the WaveToDense Miller-index map, must synthesize to the same
	// plane wave sampled on the wavefunction grid.
	g := si8Grid(t, 4)
	m := [3]int{1, -2, 1}
	b := [3]float64{2 * math.Pi / g.Cell.L[0], 2 * math.Pi / g.Cell.L[1], 2 * math.Pi / g.Cell.L[2]}
	gv := [3]float64{float64(m[0]) * b[0], float64(m[1]) * b[1], float64(m[2]) * b[2]}
	dense := make([]complex128, g.NDTot)
	idx := 0
	for ix := 0; ix < g.ND[0]; ix++ {
		x := float64(ix) / float64(g.ND[0]) * g.Cell.L[0]
		for iy := 0; iy < g.ND[1]; iy++ {
			y := float64(iy) / float64(g.ND[1]) * g.Cell.L[1]
			for iz := 0; iz < g.ND[2]; iz++ {
				z := float64(iz) / float64(g.ND[2]) * g.Cell.L[2]
				ph := gv[0]*x + gv[1]*y + gv[2]*z
				dense[idx] = cmplx.Exp(complex(0, ph))
				idx++
			}
		}
	}
	g.DenseForward(dense, dense)
	wave := make([]complex128, g.NTot)
	for i, k := range g.WaveToDense {
		wave[i] = dense[k] * complex(float64(g.NTot), 0)
	}
	// wave holds NTot * f_G; the normalized inverse synthesizes sum_G f_G exp(iG.r).
	g.Plan.ApplySerialWS(wave, wave, true, g.Plan.NewWorkspace())
	idx = 0
	for ix := 0; ix < g.N[0]; ix++ {
		x := float64(ix) / float64(g.N[0]) * g.Cell.L[0]
		for iy := 0; iy < g.N[1]; iy++ {
			y := float64(iy) / float64(g.N[1]) * g.Cell.L[1]
			for iz := 0; iz < g.N[2]; iz++ {
				z := float64(iz) / float64(g.N[2]) * g.Cell.L[2]
				ph := gv[0]*x + gv[1]*y + gv[2]*z
				want := cmplx.Exp(complex(0, ph))
				if cmplx.Abs(wave[idx]-want) > 1e-9 {
					t.Fatalf("restriction differs at %d: got %v want %v", idx, wave[idx], want)
				}
				idx++
			}
		}
	}
}

func TestWavePointPositions(t *testing.T) {
	g := si8Grid(t, 3)
	pos := g.WavePointPositions()
	if len(pos) != g.NTot {
		t.Fatalf("positions length %d, want %d", len(pos), g.NTot)
	}
	// First point is the origin; all points inside the cell.
	if pos[0] != [3]float64{0, 0, 0} {
		t.Errorf("first position %v, want origin", pos[0])
	}
	for _, p := range pos {
		for d := 0; d < 3; d++ {
			if p[d] < 0 || p[d] >= g.Cell.L[d] {
				t.Fatalf("position %v outside cell", p)
			}
		}
	}
}

func TestMillerIndexMapping(t *testing.T) {
	for _, n := range []int{5, 6, 8, 9} {
		for k := 0; k < n; k++ {
			m := millerFromIndex(k, n)
			if indexFromMiller(m, n) != k {
				t.Fatalf("miller mapping not invertible: n=%d k=%d m=%d", n, k, m)
			}
		}
	}
}

func TestNewRejectsBadCutoff(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	if _, err := New(cell, 0); err == nil {
		t.Error("expected error for zero cutoff")
	}
	if _, err := New(cell, -1); err == nil {
		t.Error("expected error for negative cutoff")
	}
}

// The pruned dense synthesis trusts SphereRowsD / SpherePlanesD to name
// exactly the z-rows and x-planes a zero-padded orbital can be nonzero in:
// a missing row would drop coefficients, an extra one only wastes work.
func TestSphereRowsAndPlanesCoverSphereExactly(t *testing.T) {
	for _, tc := range []struct {
		cells         [3]int
		ecut          float64
		nrows, nplane int // 0: not pinned
	}{
		{[3]int{1, 1, 1}, 2, 0, 0},
		{[3]int{1, 1, 1}, 3, 0, 0},
		{[3]int{1, 1, 1}, 6, 0, 0},
		{[3]int{2, 1, 1}, 3, 97, 17}, // the 36x18x18 box of DESIGN.md §5
	} {
		g := MustNew(lattice.MustSiliconSupercell(tc.cells[0], tc.cells[1], tc.cells[2]), tc.ecut)
		rows := map[int]bool{}
		planes := map[int]bool{}
		for _, k := range g.SphereIdxD {
			rows[k/g.ND[2]] = true
			planes[k/(g.ND[1]*g.ND[2])] = true
		}
		check := func(what string, list []int, want map[int]bool, limit int) {
			if len(list) != len(want) {
				t.Errorf("%v ecut %g: %d %s listed, sphere touches %d", tc.cells, tc.ecut, len(list), what, len(want))
			}
			for i, v := range list {
				if !want[v] {
					t.Errorf("%v ecut %g: %s %d listed but holds no sphere point", tc.cells, tc.ecut, what, v)
				}
				if v < 0 || v >= limit || (i > 0 && list[i-1] >= v) {
					t.Fatalf("%v ecut %g: %s list not ascending inside [0,%d) at %d: %v", tc.cells, tc.ecut, what, limit, i, list)
				}
			}
		}
		check("rows", g.SphereRowsD, rows, g.ND[0]*g.ND[1])
		check("planes", g.SpherePlanesD, planes, g.ND[0])
		if tc.nrows != 0 && (len(g.SphereRowsD) != tc.nrows || len(g.SpherePlanesD) != tc.nplane) {
			t.Errorf("%v ecut %g on %v: %d rows, %d planes; want %d, %d", tc.cells, tc.ecut, g.ND,
				len(g.SphereRowsD), len(g.SpherePlanesD), tc.nrows, tc.nplane)
		}
	}
}

// toRealDense is the unpruned oracle of the dense synthesis: psi(r) =
// (1/sqrt(Omega)) sum_G c_G exp(iG.r) on the dense box, every pencil of the
// zero-padded box transformed.
func toRealDense(g *Grid, c []complex128) []complex128 {
	box := make([]complex128, g.NDTot)
	scale := complex(1/math.Sqrt(g.Volume()), 0)
	for s, k := range g.SphereIdxD {
		box[k] = c[s] * scale
	}
	g.DenseInverse(box, box)
	return box
}

func TestToRealDenseSlabMatchesToRealDense(t *testing.T) {
	g := si8Grid(t, 3)
	rng := rand.New(rand.NewSource(5))
	c := make([]complex128, g.NG)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ref := toRealDense(g, c)
	sc := g.AcquireDenseScratch(1)
	defer g.ReleaseDenseScratch(sc)
	// Run twice: the second call must not see the first one's leftovers.
	for rep := 0; rep < 2; rep++ {
		g.ToRealDenseSlabWS(sc[0].Box, c, sc[0].WS)
	}
	norm := 1 / math.Sqrt(g.Volume())
	for i, want := range ref {
		got := complex(sc[0].Box.Re[i]*norm, sc[0].Box.Im[i]*norm)
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("point %d: slab %v, ToRealDense %v", i, got, want)
		}
	}
}

// MinusGDense is an involution that negates every G component the box can
// negate: the Nyquist index of an even dimension is its own partner.
func TestMinusGDenseInvolution(t *testing.T) {
	for _, ecut := range []float64{3, 6} { // 18^3 and 24^3 dense boxes, both with Nyquist planes
		g := si8Grid(t, ecut)
		for k, m := range g.MinusGDense {
			if int(g.MinusGDense[m]) != k {
				t.Fatalf("ecut %g: -(-G) of point %d is %d", ecut, k, g.MinusGDense[m])
			}
			if g.G2Dense[m] != g.G2Dense[k] || g.CoulombDense[m] != g.CoulombDense[k] {
				t.Fatalf("ecut %g: |G| differs between point %d and its partner %d", ecut, k, m)
			}
			for d := 0; d < 3; d++ {
				a, b := g.GVecDense[k][d], g.GVecDense[m][d]
				nyquist := g.ND[d]%2 == 0 && a == b && a != 0
				if a != -b && !nyquist {
					t.Fatalf("ecut %g: point %d axis %d: G %g, partner %g", ecut, k, d, a, b)
				}
			}
		}
		if g.CoulombDense[0] != 0 {
			t.Errorf("ecut %g: Coulomb kernel at G = 0 is %g, want 0", ecut, g.CoulombDense[0])
		}
	}
}

// The []complex128 entry points run on pooled plan workspaces; once a first
// call has given the pooled workspace its grid slab they allocate nothing.
func TestSerialLayoutTransformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	g := si8Grid(t, 3)
	c := make([]complex128, g.NG)
	box := make([]complex128, g.NTot)
	dense := make([]complex128, g.NDTot)
	g.ToRealSerial(box, c)
	g.DenseForward(dense, dense)
	if a := testing.AllocsPerRun(10, func() {
		g.ToRealSerial(box, c)
		g.DenseForward(dense, dense)
		g.DenseInverse(dense, dense)
	}); a != 0 {
		t.Errorf("ToRealSerial + DenseForward + DenseInverse allocate %v per run", a)
	}
}
