// Package pseudo provides norm-conserving pseudopotentials in the form the
// plane-wave code consumes: an analytic local form factor v(q) per species
// and Kleinman-Bylander nonlocal projectors stored as sparse real-space
// vectors (the paper's representation, section 3.2 / ref [37]: real-space
// projectors are >5x faster than reciprocal space for systems beyond a few
// hundred atoms and need no communication because every rank stores them).
//
// The silicon potential is the Appelbaum-Hamann analytic model
// (PRB 8, 1777 (1973)) converted to Hartree units, standing in for the
// paper's SG15 ONCV potentials, plus a weak model s-channel KB projector so
// that the nonlocal code path is exercised exactly as in PWDFT.
package pseudo

import (
	"math"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
)

// ProjectorSpec describes one Kleinman-Bylander channel with a Gaussian
// radial shape beta(r) = norm * exp(-r^2/(2 rc^2)) (s symmetry).
type ProjectorSpec struct {
	D    float64 // KB energy (Ha): contribution D * |beta><beta|
	Rc   float64 // Gaussian width (bohr)
	Rmax float64 // support cutoff radius (bohr); beta is truncated beyond
}

// Potential is a species pseudopotential.
type Potential struct {
	Symbol string
	Zval   float64
	// Local part parameters: V(r) = -(Z/r) erf(sqrt(alpha) r)
	//                              + (A + B r^2) exp(-alpha r^2).
	Alpha, A, B float64
	Projectors  []ProjectorSpec
}

// SiliconAH returns the Appelbaum-Hamann silicon potential with a weak
// model KB s-projector. AH parameters (Rydberg): alpha = 0.6102 bohr^-2,
// v1 = 3.042 Ry, v2 = -1.372 Ry/bohr^2; halved here for Hartree.
func SiliconAH() *Potential {
	return &Potential{
		Symbol: "Si",
		Zval:   4,
		Alpha:  0.6102,
		A:      3.042 / 2,
		B:      -1.372 / 2,
		Projectors: []ProjectorSpec{
			{D: 0.35, Rc: 1.1, Rmax: 3.5},
		},
	}
}

// GermaniumModel returns an Appelbaum-Hamann-style model potential for a
// germanium-like species: same valence (4) on the same lattice, with a
// softer core and shallower repulsive correction so its valence states sit
// higher than silicon's. Not fitted to real Ge - it exists to build
// heterostructure demonstrations (charge transfer between chemically
// distinct layers, one of the paper's motivating applications).
func GermaniumModel() *Potential {
	return &Potential{
		Symbol: "Ge",
		Zval:   4,
		Alpha:  0.52,
		A:      1.10,
		B:      -0.42,
		Projectors: []ProjectorSpec{
			{D: 0.30, Rc: 1.2, Rmax: 3.6},
		},
	}
}

// LocalFormFactor returns the Fourier transform of the local potential of
// one atom, in Ha*bohr^3, at squared wavevector q2. The q^2 -> 0 Coulomb
// divergence is excluded: callers must treat G = 0 separately (it cancels
// against the Hartree and ion-ion G = 0 terms in a neutral cell).
func (p *Potential) LocalFormFactor(q2 float64) float64 {
	e := math.Exp(-q2 / (4 * p.Alpha))
	gauss := math.Pow(math.Pi/p.Alpha, 1.5) * e
	var v float64
	if q2 > 1e-12 {
		v = -4 * math.Pi * p.Zval / q2 * e
	}
	// FT[(A + B r^2) e^{-alpha r^2}] = A*gauss + B*gauss*(3/(2 alpha) - q2/(4 alpha^2)).
	v += p.A * gauss
	v += p.B * gauss * (3/(2*p.Alpha) - q2/(4*p.Alpha*p.Alpha))
	return v
}

// Nonlocal holds the sparse real-space KB projectors of all atoms on the
// wavefunction grid. Every rank stores the full set (as in the paper, where
// the 432 MB of Si1536 projectors fit every V100), so applying it needs no
// communication.
type Nonlocal struct {
	projs []sparseProjector
	ng    int // wavefunction box size the projectors index into
	dv    float64
	// forceScratch recycles the per-worker boxes of Forces; BuildNonlocalMD,
	// the one builder whose projectors Forces accepts, sets it up.
	forceScratch parallel.ScratchPool[*forceScratch]
}

type sparseProjector struct {
	d    float64
	atom int // index into Cell.Atoms, for force assembly
	idx  []int32
	val  []float64
	// grad holds the center-gradient fields d beta / d R_d sampled on the
	// same support, present only for ion-dynamics builds (BuildNonlocalMD).
	grad [3][]float64
}

// BuildNonlocal constructs the sparse projectors for every atom in the cell
// on the wavefunction grid. pots maps species index to its Potential.
func BuildNonlocal(g *grid.Grid, pots map[int]*Potential) *Nonlocal {
	nl := &Nonlocal{ng: g.NTot, dv: g.DVWave()}
	pos := g.WavePointPositions()
	cellL := g.Cell.L
	for ai, atom := range g.Cell.Atoms {
		pot, ok := pots[atom.Species]
		if !ok {
			continue
		}
		for _, spec := range pot.Projectors {
			sp := buildSparse(pos, cellL, atom.Pos, spec, g.DVWave())
			sp.d = spec.D
			sp.atom = ai
			nl.projs = append(nl.projs, sp)
		}
	}
	return nl
}

func buildSparse(pos [][3]float64, cellL, center [3]float64, spec ProjectorSpec, dv float64) sparseProjector {
	var sp sparseProjector
	rmax2 := spec.Rmax * spec.Rmax
	for i, p := range pos {
		// Minimum-image distance in the orthorhombic cell.
		var r2 float64
		for d := 0; d < 3; d++ {
			dd := p[d] - center[d]
			dd -= cellL[d] * math.Round(dd/cellL[d])
			r2 += dd * dd
		}
		if r2 > rmax2 {
			continue
		}
		v := math.Exp(-r2 / (2 * spec.Rc * spec.Rc))
		sp.idx = append(sp.idx, int32(i))
		sp.val = append(sp.val, v)
	}
	// Normalize so that <beta|beta> = 1 on the grid: the KB energy D then
	// carries all the strength.
	var norm float64
	for _, v := range sp.val {
		norm += v * v
	}
	norm *= dv
	if norm > 0 {
		s := 1 / math.Sqrt(norm)
		for i := range sp.val {
			sp.val[i] *= s
		}
	}
	return sp
}

// project returns <beta|psi> / dv for one projector.
func (p *sparseProjector) project(src lanes.Slab) (re, im float64) {
	for k, ix := range p.idx {
		re += p.val[k] * src.Re[ix]
		im += p.val[k] * src.Im[ix]
	}
	return re, im
}

// Apply accumulates the nonlocal potential action dst += sum_a D_a
// |beta_a><beta_a|psi> for a wavefunction given in real space on the
// wavefunction grid, in the split re/im layout the slab transforms produce.
// dst and src have length NTot and may not alias.
func (nl *Nonlocal) Apply(dst, src lanes.Slab) {
	if dst.Len() != nl.ng || src.Len() != nl.ng {
		panic("pseudo: Nonlocal.Apply buffer size mismatch")
	}
	for i := range nl.projs {
		p := &nl.projs[i]
		re, im := p.project(src)
		re *= nl.dv * p.d
		im *= nl.dv * p.d
		if re == 0 && im == 0 {
			continue
		}
		for k, ix := range p.idx {
			dst.Re[ix] += p.val[k] * re
			dst.Im[ix] += p.val[k] * im
		}
	}
}

// Energy returns sum_a D_a |<beta_a|psi>|^2 for a real-space wavefunction.
func (nl *Nonlocal) Energy(src lanes.Slab) float64 {
	if src.Len() != nl.ng {
		panic("pseudo: Nonlocal.Energy buffer size mismatch")
	}
	var e float64
	for i := range nl.projs {
		p := &nl.projs[i]
		re, im := p.project(src)
		re *= nl.dv
		im *= nl.dv
		e += p.d * (re*re + im*im)
	}
	return e
}
