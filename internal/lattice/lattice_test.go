package lattice

import (
	"math"
	"strings"
	"testing"

	"ptdft/internal/units"
)

func TestSiliconSupercellCounts(t *testing.T) {
	cases := []struct {
		nx, ny, nz, atoms int
	}{
		{1, 1, 1, 8},
		{1, 1, 3, 24},
		{2, 1, 3, 48},   // paper's smallest test system
		{4, 6, 8, 1536}, // paper's largest
	}
	for _, c := range cases {
		cell, err := SiliconSupercell(c.nx, c.ny, c.nz)
		if err != nil {
			t.Fatal(err)
		}
		if got := cell.NumAtoms(); got != c.atoms {
			t.Errorf("%dx%dx%d: %d atoms, want %d", c.nx, c.ny, c.nz, got, c.atoms)
		}
		if got := cell.NumBands(); got != 2*c.atoms {
			t.Errorf("%dx%dx%d: %d bands, want %d", c.nx, c.ny, c.nz, got, 2*c.atoms)
		}
		if got := cell.NumElectrons(); got != float64(4*c.atoms) {
			t.Errorf("%dx%dx%d: %g electrons, want %d", c.nx, c.ny, c.nz, got, 4*c.atoms)
		}
	}
}

func TestSiliconLatticeConstant(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 1)
	a := units.SiliconLatticeAngstrom * units.BohrPerAngstrom
	for d := 0; d < 3; d++ {
		if math.Abs(cell.L[d]-a) > 1e-12 {
			t.Errorf("edge %d = %g, want %g (5.43 Angstrom)", d, cell.L[d], a)
		}
	}
	if math.Abs(a-10.2612) > 1e-3 {
		t.Errorf("5.43 Angstrom = %g bohr, expected ~10.2612", a)
	}
}

func TestAtomsInsideCell(t *testing.T) {
	cell := MustSiliconSupercell(2, 3, 1)
	for i, at := range cell.Atoms {
		for d := 0; d < 3; d++ {
			if at.Pos[d] < 0 || at.Pos[d] >= cell.L[d] {
				t.Fatalf("atom %d outside cell: %v", i, at.Pos)
			}
		}
	}
}

func TestAtomsDistinct(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 2)
	seen := map[[3]int]bool{}
	for _, at := range cell.Atoms {
		key := [3]int{int(at.Pos[0] * 1e6), int(at.Pos[1] * 1e6), int(at.Pos[2] * 1e6)}
		if seen[key] {
			t.Fatalf("duplicate atom at %v", at.Pos)
		}
		seen[key] = true
	}
}

func TestNearestNeighborDistance(t *testing.T) {
	// Diamond structure: nearest neighbor at a*sqrt(3)/4 = 2.35 Angstrom.
	cell := MustSiliconSupercell(1, 1, 1)
	a := cell.L[0]
	want := a * math.Sqrt(3) / 4
	min := math.Inf(1)
	for i := 0; i < len(cell.Atoms); i++ {
		for j := i + 1; j < len(cell.Atoms); j++ {
			var d2 float64
			for d := 0; d < 3; d++ {
				dd := cell.Atoms[i].Pos[d] - cell.Atoms[j].Pos[d]
				dd -= cell.L[d] * math.Round(dd/cell.L[d])
				d2 += dd * dd
			}
			if d := math.Sqrt(d2); d < min {
				min = d
			}
		}
	}
	if math.Abs(min-want) > 1e-9 {
		t.Errorf("nearest neighbor %g, want %g", min, want)
	}
}

func TestVolume(t *testing.T) {
	cell := MustSiliconSupercell(2, 3, 4)
	a := units.SiliconLatticeAngstrom * units.BohrPerAngstrom
	want := 24 * a * a * a
	if math.Abs(cell.Volume()-want) > 1e-6 {
		t.Errorf("volume %g, want %g", cell.Volume(), want)
	}
}

func TestWrap(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 1)
	l := cell.L[0]
	p := cell.Wrap([3]float64{-1, l + 2, 0.5 * l})
	if p[0] < 0 || p[0] >= l || p[1] < 0 || p[1] >= l {
		t.Errorf("wrap failed: %v", p)
	}
	if math.Abs(p[0]-(l-1)) > 1e-12 || math.Abs(p[1]-2) > 1e-12 {
		t.Errorf("wrap values wrong: %v", p)
	}
	// Far coordinates return in the cell (a job's displace can be any
	// finite number), infinite ones as NaN; neither loops.
	p = cell.Wrap([3]float64{1e300, -1e20, 3*l + 2})
	for d, v := range p {
		if !(v >= 0 && v < l) {
			t.Errorf("far wrap: coordinate %d = %g, want in [0, %g)", d, v, l)
		}
	}
	if math.Abs(p[2]-2) > 1e-12 {
		t.Errorf("wrap of 3L+2 = %g, want 2", p[2])
	}
	if p = cell.Wrap([3]float64{math.Inf(1), math.Inf(-1), 0}); !math.IsNaN(p[0]) || !math.IsNaN(p[1]) {
		t.Errorf("infinite wrap = %v, want NaN", p)
	}
}

func TestNewCellRejectsBadEdges(t *testing.T) {
	if _, err := NewCell(0, 1, 1); err == nil {
		t.Error("expected error for zero edge")
	}
	if _, err := SiliconSupercell(0, 1, 1); err == nil {
		t.Error("expected error for zero supercell")
	}
}

// TestCloneIsDeep: mutating a clone's atoms or species must not touch the
// original - the distributed ion ranks rely on this isolation.
func TestCloneIsDeep(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 1)
	clone := cell.Clone()
	if err := clone.DisplaceAtom(0, [3]float64{0.5, 0, 0}); err != nil {
		t.Fatal(err)
	}
	clone.Species[0].MassAMU = 1
	if cell.Atoms[0].Pos != (MustSiliconSupercell(1, 1, 1).Atoms[0].Pos) {
		t.Error("clone displacement leaked into the original cell")
	}
	if cell.Species[0].MassAMU == 1 {
		t.Error("clone species edit leaked into the original cell")
	}
	if clone.Volume() != cell.Volume() || clone.NumAtoms() != cell.NumAtoms() {
		t.Error("clone lost cell invariants")
	}
}

// TestDisplaceAtomPreservesInvariants: displacing one atom keeps every
// cell invariant - counts, volume, electron count, positions in the home
// cell - and moves exactly the requested atom by exactly the requested
// minimum-image offset.
func TestDisplaceAtomPreservesInvariants(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 1)
	ref := cell.Clone()
	d := [3]float64{0.3, -0.2, 10.0} // y and z wrap around the cell
	if err := cell.DisplaceAtom(2, d); err != nil {
		t.Fatal(err)
	}
	if cell.NumAtoms() != ref.NumAtoms() || cell.NumElectrons() != ref.NumElectrons() ||
		cell.NumBands() != ref.NumBands() || cell.Volume() != ref.Volume() {
		t.Error("displacement changed a cell invariant")
	}
	for i, at := range cell.Atoms {
		for k := 0; k < 3; k++ {
			if at.Pos[k] < 0 || at.Pos[k] >= cell.L[k] {
				t.Errorf("atom %d outside home cell after displacement: %v", i, at.Pos)
			}
		}
		if i != 2 && at.Pos != ref.Atoms[i].Pos {
			t.Errorf("displacement of atom 2 moved atom %d", i)
		}
	}
	// The minimum-image separation from the original site equals the
	// wrapped displacement.
	mi, dist := cell.MinimumImage(ref.Atoms[2].Pos, cell.Atoms[2].Pos)
	want := [3]float64{0.3, -0.2, 10.0 - cell.L[2]}
	var wantLen float64
	for k := 0; k < 3; k++ {
		if math.Abs(mi[k]-want[k]) > 1e-12 {
			t.Errorf("minimum image component %d = %g, want %g", k, mi[k], want[k])
		}
		wantLen += want[k] * want[k]
	}
	if math.Abs(dist-math.Sqrt(wantLen)) > 1e-12 {
		t.Errorf("minimum image length %g, want %g", dist, math.Sqrt(wantLen))
	}
	if err := cell.DisplaceAtom(99, d); err == nil {
		t.Error("out-of-range atom index accepted")
	}
	// A component beyond the cell length on its axis is rejected, naming
	// the axis, and moves nothing.
	moved := cell.Clone()
	if err := cell.DisplaceAtom(2, [3]float64{0, 0, cell.L[2] + 0.01}); err == nil || !strings.Contains(err.Error(), "along z") {
		t.Errorf("displacement beyond the cell length: error %v, want one naming z", err)
	}
	if cell.Atoms[2].Pos != moved.Atoms[2].Pos {
		t.Error("a rejected displacement moved the atom")
	}
}

// TestPositionsSetPositionsRoundTrip: the integrator's position plumbing -
// read, advance, write back wrapped - preserves the atom order and wraps
// into the home cell.
func TestPositionsSetPositionsRoundTrip(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 1)
	pos := cell.Positions()
	for i := range pos {
		pos[i][0] += cell.L[0] // a full period: must wrap to the identical point
	}
	if err := cell.SetPositions(pos); err != nil {
		t.Fatal(err)
	}
	ref := MustSiliconSupercell(1, 1, 1)
	for i := range cell.Atoms {
		_, d := cell.MinimumImage(ref.Atoms[i].Pos, cell.Atoms[i].Pos)
		if d > 1e-12 {
			t.Errorf("atom %d moved by %g under a full-period shift", i, d)
		}
	}
	if err := cell.SetPositions(pos[:3]); err == nil {
		t.Error("short position list accepted")
	}
}

// TestMasses: silicon cells carry the Si mass for every atom; species
// without a mass are rejected - the ion integrator must not divide by
// zero.
func TestMasses(t *testing.T) {
	cell := MustSiliconSupercell(1, 1, 2)
	m, err := cell.Masses()
	if err != nil {
		t.Fatal(err)
	}
	want := units.SiliconMassAMU * units.ElectronMassPerAMU
	for i, mi := range m {
		if math.Abs(mi-want) > 1e-6 {
			t.Errorf("atom %d mass %g, want %g", i, mi, want)
		}
	}
	bad, _ := NewCell(1, 1, 1)
	bad.Species = []Species{{Symbol: "X", Zval: 1}}
	bad.Atoms = []Atom{{Species: 0}}
	if _, err := bad.Masses(); err == nil {
		t.Error("massless species accepted")
	}
}

func TestOddElectronBandCount(t *testing.T) {
	c, _ := NewCell(1, 1, 1)
	c.Species = []Species{{Symbol: "X", Zval: 3}}
	c.Atoms = []Atom{{Species: 0}}
	if c.NumBands() != 2 {
		t.Errorf("3 electrons need 2 bands, got %d", c.NumBands())
	}
}
