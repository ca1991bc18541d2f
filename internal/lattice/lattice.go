// Package lattice describes orthorhombic periodic supercells and builds the
// silicon test systems of the paper (section 4): diamond-structure
// supercells assembled from the 8-atom simple-cubic unit cell with lattice
// constant 5.43 Angstrom, from Si8 up to Si1536 (4 x 6 x 8 unit cells).
package lattice

import (
	"fmt"
	"math"

	"ptdft/internal/units"
)

// Species identifies an atomic species and its pseudopotential-relevant
// parameters.
type Species struct {
	Symbol  string
	Zval    float64 // valence charge seen by the pseudopotential
	MassAMU float64 // ion mass in atomic mass units (0 = unknown; ion dynamics rejects it)
}

// Atom is an atom at a Cartesian position (Bohr) inside the cell.
type Atom struct {
	Species int // index into Cell.Species
	Pos     [3]float64
}

// Cell is an orthorhombic periodic supercell.
type Cell struct {
	L       [3]float64 // box edge lengths in Bohr
	Species []Species
	Atoms   []Atom
}

// NewCell creates an empty cell with the given edge lengths (Bohr).
func NewCell(lx, ly, lz float64) (*Cell, error) {
	if lx <= 0 || ly <= 0 || lz <= 0 {
		return nil, fmt.Errorf("lattice: non-positive cell edge (%g, %g, %g)", lx, ly, lz)
	}
	return &Cell{L: [3]float64{lx, ly, lz}}, nil
}

// Volume returns the cell volume in Bohr^3.
func (c *Cell) Volume() float64 { return c.L[0] * c.L[1] * c.L[2] }

// NumAtoms returns the number of atoms in the cell.
func (c *Cell) NumAtoms() int { return len(c.Atoms) }

// NumElectrons returns the total number of valence electrons.
func (c *Cell) NumElectrons() float64 {
	var n float64
	for _, a := range c.Atoms {
		n += c.Species[a.Species].Zval
	}
	return n
}

// NumBands returns the number of doubly-occupied orbitals for a
// spin-restricted insulator: Nelec/2. The paper's Si1536 system has 6144
// valence electrons and therefore 3072 orbitals.
func (c *Cell) NumBands() int {
	ne := c.NumElectrons()
	nb := int(ne / 2)
	if float64(2*nb) != ne {
		nb++ // odd electron counts get one extra (partially filled) band
	}
	return nb
}

// Wrap maps a Cartesian position into the home cell [0, L). A coordinate
// outside [-L, 2L) is first reduced by math.Mod, so the loops below take at
// most one turn: a huge one (where p - L == p) cannot spin forever, and an
// infinite one becomes NaN.
func (c *Cell) Wrap(p [3]float64) [3]float64 {
	for d := 0; d < 3; d++ {
		if p[d] < -c.L[d] || p[d] >= 2*c.L[d] {
			p[d] = math.Mod(p[d], c.L[d])
		}
		for p[d] < 0 {
			p[d] += c.L[d]
		}
		for p[d] >= c.L[d] {
			p[d] -= c.L[d]
		}
	}
	return p
}

// diamondBasis lists the 8 fractional positions of the conventional
// diamond-structure cubic cell (FCC lattice + 2-atom basis).
var diamondBasis = [8][3]float64{
	{0, 0, 0}, {0, 0.5, 0.5}, {0.5, 0, 0.5}, {0.5, 0.5, 0},
	{0.25, 0.25, 0.25}, {0.25, 0.75, 0.75}, {0.75, 0.25, 0.75}, {0.75, 0.75, 0.25},
}

// SiliconSupercell builds an nx x ny x nz supercell of the 8-atom diamond
// cubic silicon cell. The paper's systems range from Si48 to Si1536
// (4 x 6 x 8). The returned cell has one species (Si, Zval = 4).
func SiliconSupercell(nx, ny, nz int) (*Cell, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("lattice: invalid supercell %dx%dx%d", nx, ny, nz)
	}
	a := units.SiliconLatticeAngstrom * units.BohrPerAngstrom
	cell, err := NewCell(float64(nx)*a, float64(ny)*a, float64(nz)*a)
	if err != nil {
		return nil, err
	}
	cell.Species = []Species{{Symbol: "Si", Zval: 4, MassAMU: units.SiliconMassAMU}}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				for _, b := range diamondBasis {
					cell.Atoms = append(cell.Atoms, Atom{
						Species: 0,
						Pos: [3]float64{
							(float64(ix) + b[0]) * a,
							(float64(iy) + b[1]) * a,
							(float64(iz) + b[2]) * a,
						},
					})
				}
			}
		}
	}
	return cell, nil
}

// MustSiliconSupercell is SiliconSupercell that panics on error.
func MustSiliconSupercell(nx, ny, nz int) *Cell {
	c, err := SiliconSupercell(nx, ny, nz)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns a deep copy of the cell. Ion-dynamics ranks each clone the
// shared cell so concurrent position updates never touch shared memory.
func (c *Cell) Clone() *Cell {
	out := &Cell{L: c.L}
	out.Species = append([]Species(nil), c.Species...)
	out.Atoms = append([]Atom(nil), c.Atoms...)
	return out
}

// MinimumImage returns the minimum-image separation vector b - a in the
// periodic cell and its length.
func (c *Cell) MinimumImage(a, b [3]float64) ([3]float64, float64) {
	var d [3]float64
	var r2 float64
	for k := 0; k < 3; k++ {
		dd := b[k] - a[k]
		dd -= c.L[k] * math.Round(dd/c.L[k])
		d[k] = dd
		r2 += dd * dd
	}
	return d, math.Sqrt(r2)
}

// DisplaceAtom moves atom i by the Cartesian vector d (Bohr), wrapping the
// result into the home cell. Each component's magnitude is bounded by the
// cell length on its axis: beyond it, no digit of a larger displacement
// would survive the wrap.
func (c *Cell) DisplaceAtom(i int, d [3]float64) error {
	if i < 0 || i >= len(c.Atoms) {
		return fmt.Errorf("lattice: atom index %d outside [0, %d)", i, len(c.Atoms))
	}
	p := c.Atoms[i].Pos
	for k := 0; k < 3; k++ {
		if !(math.Abs(d[k]) <= c.L[k]) {
			return fmt.Errorf("lattice: displace %g Bohr along %c exceeds the cell length %g Bohr on that axis", d[k], "xyz"[k], c.L[k])
		}
		p[k] += d[k]
	}
	c.Atoms[i].Pos = c.Wrap(p)
	return nil
}

// Positions returns a copy of all atom positions in atom order.
func (c *Cell) Positions() [][3]float64 {
	pos := make([][3]float64, len(c.Atoms))
	for i, a := range c.Atoms {
		pos[i] = a.Pos
	}
	return pos
}

// SetPositions installs new atom positions (wrapped into the home cell),
// keeping species assignments. The ion integrator writes the advanced
// geometry through this before the operators are rebuilt.
func (c *Cell) SetPositions(pos [][3]float64) error {
	if len(pos) != len(c.Atoms) {
		return fmt.Errorf("lattice: %d positions for %d atoms", len(pos), len(c.Atoms))
	}
	for i, p := range pos {
		c.Atoms[i].Pos = c.Wrap(p)
	}
	return nil
}

// Masses returns the per-atom ion masses in atomic units (electron
// masses), or an error if any species has no mass assigned.
func (c *Cell) Masses() ([]float64, error) {
	m := make([]float64, len(c.Atoms))
	for i, a := range c.Atoms {
		amu := c.Species[a.Species].MassAMU
		if amu <= 0 {
			return nil, fmt.Errorf("lattice: species %q has no mass; ion dynamics needs MassAMU", c.Species[a.Species].Symbol)
		}
		m[i] = amu * units.ElectronMassPerAMU
	}
	return m, nil
}
