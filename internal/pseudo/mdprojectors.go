package pseudo

import (
	"fmt"
	"math"

	"ptdft/internal/fourier"
	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
)

// BuildNonlocalMD constructs the nonlocal projectors for ion dynamics:
// band-limited to the wavefunction G-sphere (the same basis the orbitals
// live in), supported on the full grid (no Rmax truncation), and carrying
// the analytic center-gradient fields d beta / d R. Three properties make
// this the force-ready representation:
//
//   - the sphere is inversion symmetric, so the synthesized projector is
//     exactly real and its grid norm is exactly translation invariant
//     (Parseval over the sphere coefficients) - there is no egg-box ripple
//     for the normalization to leak into the forces;
//   - dropping the Rmax truncation removes the support-set discontinuities
//     a moving atom would otherwise sweep through, so the nonlocal energy
//     is a smooth function of the positions and the Hellmann-Feynman force
//     matches finite differences of the discrete energy to integrator
//     accuracy;
//   - the gradient fields are the exact derivatives of the sampled values
//     (the -iG factor in the sphere coefficients), not a finite-difference
//     resampling.
//
// The cost is a dense support (NTot points per projector instead of the
// Rmax ball) and 4x the projector storage - acceptable for MD runs, which
// rebuild these once per ion step; static runs keep the sparse builder.
func BuildNonlocalMD(g *grid.Grid, pots map[int]*Potential) *Nonlocal {
	nl := &Nonlocal{ng: g.NTot, dv: g.DVWave()}
	nl.forceScratch.New = func() *forceScratch {
		return &forceScratch{box: lanes.New(g.NTot), fft: g.Plan.NewWorkspace()}
	}
	ws := nl.forceScratch.Get()
	defer nl.forceScratch.Put(ws)
	for ai, atom := range g.Cell.Atoms {
		pot, ok := pots[atom.Species]
		if !ok {
			continue
		}
		for _, spec := range pot.Projectors {
			sp := buildMD(g, atom.Pos, spec, ws)
			sp.d = spec.D
			sp.atom = ai
			nl.projs = append(nl.projs, sp)
		}
	}
	return nl
}

// forceScratch is one worker's wave-box scratch: the real-space box a band
// or a projector field is synthesized into, and the FFT scratch of the
// synthesis.
type forceScratch struct {
	box lanes.Slab
	fft *fourier.Workspace3
}

// buildMD synthesizes one Gaussian channel and its three center-gradient
// fields from sphere coefficients. The Gaussian transform is
// exp(-q^2 rc^2/2) up to a constant absorbed by the normalization; the
// gradient coefficients carry the extra -i G_d.
func buildMD(g *grid.Grid, center [3]float64, spec ProjectorSpec, ws *forceScratch) sparseProjector {
	ng := g.NG
	rc2 := spec.Rc * spec.Rc
	c := make([]complex128, ng)
	var norm float64
	for s := 0; s < ng; s++ {
		amp := math.Exp(-g.G2[s] * rc2 / 2)
		gv := g.GVec[s]
		ph := gv[0]*center[0] + gv[1]*center[1] + gv[2]*center[2]
		sn, cs := math.Sincos(-ph)
		c[s] = complex(amp*cs, amp*sn)
		norm += amp * amp
	}
	// Parseval: the grid norm of the synthesized field is sum_s |c_s|^2,
	// independent of the center. Scaling here makes <beta|beta> = 1 exactly.
	scale := 1 / math.Sqrt(norm)

	sp := sparseProjector{
		idx: make([]int32, g.NTot),
		val: make([]float64, g.NTot),
	}
	for i := range sp.idx {
		sp.idx[i] = int32(i)
	}
	g.ToRealSlabWS(ws.box, c, ws.fft)
	for i, v := range ws.box.Re {
		sp.val[i] = v * scale
	}
	cd := make([]complex128, ng)
	for d := 0; d < 3; d++ {
		for s := 0; s < ng; s++ {
			// d/dR_d of e^{-iG.R} brings down -i G_d.
			cd[s] = c[s] * complex(0, -g.GVec[s][d])
		}
		g.ToRealSlabWS(ws.box, cd, ws.fft)
		gv := make([]float64, g.NTot)
		for i, v := range ws.box.Re {
			gv[i] = v * scale
		}
		sp.grad[d] = gv
	}
	return sp
}

// HasGradients reports whether this projector set carries the
// center-gradient fields force assembly needs (BuildNonlocalMD builds).
func (nl *Nonlocal) HasGradients() bool {
	for _, p := range nl.projs {
		if p.grad[0] == nil {
			return false
		}
	}
	return len(nl.projs) > 0
}

// Forces accumulates the Hellmann-Feynman nonlocal force into dst (one
// [3] per atom, Ha/Bohr): for each channel a with projection
// p_b = <beta_a|psi_b>,
//
//	F_a = -2 occ D_a sum_b Re[ conj(p_b) <d beta_a/d R | psi_b> ].
//
// psi is band-major sphere coefficients. The band loop is parallel, each
// worker synthesizing its bands into one recycled box, but the reduction is
// performed in fixed (band, projector) order, so the result is
// bit-reproducible - the distributed solver allreduces per-rank partials
// and every rank must integrate the identical ion trajectory.
func (nl *Nonlocal) Forces(dst [][3]float64, g *grid.Grid, psi []complex128, nb int, occ float64) error {
	if !nl.HasGradients() {
		return fmt.Errorf("pseudo: Forces needs gradient-capable projectors (BuildNonlocalMD)")
	}
	if len(dst) < nl.maxAtom()+1 {
		return fmt.Errorf("pseudo: Forces dst holds %d atoms, projectors reference atom %d", len(dst), nl.maxAtom())
	}
	np := len(nl.projs)
	// part[b*np+k] is band b's contribution through projector k.
	part := make([][3]float64, nb*np)
	wss := nl.forceScratch.Acquire(parallel.NumWorkers(nb))
	parallel.ForWorker(nb, func(w, b int) {
		box := wss[w].box
		g.ToRealSlabWS(box, psi[b*g.NG:(b+1)*g.NG], wss[w].fft)
		for k := range nl.projs {
			p := &nl.projs[k]
			var pre, pim float64
			for j, ix := range p.idx {
				pre += p.val[j] * box.Re[ix]
				pim += p.val[j] * box.Im[ix]
			}
			pre *= nl.dv
			pim *= nl.dv
			var f [3]float64
			for d := 0; d < 3; d++ {
				gd := p.grad[d]
				var qre, qim float64
				for j, ix := range p.idx {
					qre += gd[j] * box.Re[ix]
					qim += gd[j] * box.Im[ix]
				}
				qre *= nl.dv
				qim *= nl.dv
				// Re[conj(p) q]
				f[d] = -2 * occ * p.d * (pre*qre + pim*qim)
			}
			part[b*np+k] = f
		}
	})
	nl.forceScratch.Release(wss)
	for b := 0; b < nb; b++ {
		for k := range nl.projs {
			a := nl.projs[k].atom
			for d := 0; d < 3; d++ {
				dst[a][d] += part[b*np+k][d]
			}
		}
	}
	return nil
}

// maxAtom returns the largest atom index any projector references.
func (nl *Nonlocal) maxAtom() int {
	m := -1
	for _, p := range nl.projs {
		if p.atom > m {
			m = p.atom
		}
	}
	return m
}
