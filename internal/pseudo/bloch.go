package pseudo

import (
	"math"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
)

// NonlocalBloch holds phase-twisted Kleinman-Bylander projectors for a
// Bloch wavevector k: acting on the cell-periodic part u_k of
// psi = exp(ik.r) u_k(r), the projector carries the extra exp(-ik.r)
// phase, making its sparse values complex. Used by the k-point machinery
// the paper describes in section 3.1 ("for solid state systems with
// k-point sampling, the wavefunctions can naturally be grouped according
// to the k-points").
type NonlocalBloch struct {
	projs []sparseProjectorC
	ng    int
	dv    float64
}

type sparseProjectorC struct {
	d   float64
	idx []int32
	val []complex128
}

// BuildNonlocalBloch constructs the twisted projectors for wavevector k
// (reciprocal units, bohr^-1) on the wavefunction grid.
func BuildNonlocalBloch(g *grid.Grid, pots map[int]*Potential, k [3]float64) *NonlocalBloch {
	nl := &NonlocalBloch{ng: g.NTot, dv: g.DVWave()}
	pos := g.WavePointPositions()
	for _, atom := range g.Cell.Atoms {
		pot, ok := pots[atom.Species]
		if !ok {
			continue
		}
		for _, spec := range pot.Projectors {
			sp := buildSparse(pos, g.Cell.L, atom.Pos, spec, g.DVWave())
			c := sparseProjectorC{
				d:   spec.D,
				idx: sp.idx,
				val: make([]complex128, len(sp.val)),
			}
			for i, ix := range sp.idx {
				p := pos[ix]
				ph := k[0]*p[0] + k[1]*p[1] + k[2]*p[2]
				s, co := math.Sincos(-ph)
				c.val[i] = complex(sp.val[i]*co, sp.val[i]*s)
			}
			nl.projs = append(nl.projs, c)
		}
	}
	return nl
}

// Apply accumulates dst += sum_a D_a |beta_a><beta_a|u> for the
// cell-periodic part u in real space on the wavefunction grid (split re/im
// layout, as Nonlocal.Apply).
func (nl *NonlocalBloch) Apply(dst, src lanes.Slab) {
	if dst.Len() != nl.ng || src.Len() != nl.ng {
		panic("pseudo: NonlocalBloch.Apply buffer size mismatch")
	}
	for _, p := range nl.projs {
		var acc complex128
		for k, ix := range p.idx {
			// <beta|u> = sum conj(val) * u * dv
			v := p.val[k]
			acc += complex(real(v), -imag(v)) * complex(src.Re[ix], src.Im[ix])
		}
		acc *= complex(nl.dv*p.d, 0)
		if acc == 0 {
			continue
		}
		for k, ix := range p.idx {
			v := p.val[k] * acc
			dst.Re[ix] += real(v)
			dst.Im[ix] += imag(v)
		}
	}
}
