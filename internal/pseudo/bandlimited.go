package pseudo

import (
	"math"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
)

// BuildNonlocalBandLimited constructs the sparse real-space projectors by
// Fourier interpolation instead of point sampling: the analytic projector
// transform is synthesized on the wavefunction grid through the FFT box,
// so the sampled values are exactly band-limited to the grid's reciprocal
// vectors. This is the essence of the mask-function real-space scheme of
// the paper's ref [37] (Wang, PRB 64, 201107): band-limiting removes the
// "egg-box" translation dependence that naive point sampling of a
// localized projector suffers on coarse grids.
//
// The Gaussian channel beta(r) = exp(-r^2/(2 rc^2)) has transform
// betaT(q) = (2 pi)^{3/2} rc^3 exp(-q^2 rc^2 / 2).
func BuildNonlocalBandLimited(g *grid.Grid, pots map[int]*Potential) *Nonlocal {
	nl := &Nonlocal{ng: g.NTot, dv: g.DVWave()}
	pos := g.WavePointPositions()
	for ai, atom := range g.Cell.Atoms {
		pot, ok := pots[atom.Species]
		if !ok {
			continue
		}
		for _, spec := range pot.Projectors {
			sp := buildBandLimited(g, pos, atom.Pos, spec)
			sp.d = spec.D
			sp.atom = ai
			nl.projs = append(nl.projs, sp)
		}
	}
	return nl
}

func buildBandLimited(g *grid.Grid, pos [][3]float64, center [3]float64, spec ProjectorSpec) sparseProjector {
	n := g.N
	b := [3]float64{
		2 * math.Pi / g.Cell.L[0],
		2 * math.Pi / g.Cell.L[1],
		2 * math.Pi / g.Cell.L[2],
	}
	rc2 := spec.Rc * spec.Rc
	pref := math.Pow(2*math.Pi, 1.5) * spec.Rc * spec.Rc * spec.Rc / g.Volume()
	coeff := lanes.New(g.NTot)
	idx := 0
	for ix := 0; ix < n[0]; ix++ {
		mx := ix
		if mx > n[0]/2 {
			mx -= n[0]
		}
		gx := float64(mx) * b[0]
		for iy := 0; iy < n[1]; iy++ {
			my := iy
			if my > n[1]/2 {
				my -= n[1]
			}
			gy := float64(my) * b[1]
			for iz := 0; iz < n[2]; iz++ {
				mz := iz
				if mz > n[2]/2 {
					mz -= n[2]
				}
				gz := float64(mz) * b[2]
				q2 := gx*gx + gy*gy + gz*gz
				amp := pref * math.Exp(-q2*rc2/2)
				ph := gx*center[0] + gy*center[1] + gz*center[2]
				s, c := math.Sincos(-ph)
				coeff.Re[idx], coeff.Im[idx] = amp*c, amp*s
				idx++
			}
		}
	}
	// Synthesize beta(r) = sum_G coeff_G exp(iG.r): unnormalized inverse.
	ws := g.Plan.CheckoutWorkspace()
	g.Plan.RawSlabWS(coeff, coeff, true, ws)
	g.Plan.ReturnWorkspace(ws)
	var sp sparseProjector
	rmax2 := spec.Rmax * spec.Rmax
	for i, p := range pos {
		var r2 float64
		for d := 0; d < 3; d++ {
			dd := p[d] - center[d]
			dd -= g.Cell.L[d] * math.Round(dd/g.Cell.L[d])
			r2 += dd * dd
		}
		if r2 > rmax2 {
			continue
		}
		sp.idx = append(sp.idx, int32(i))
		sp.val = append(sp.val, coeff.Re[i])
	}
	var norm float64
	for _, v := range sp.val {
		norm += v * v
	}
	norm *= g.DVWave()
	if norm > 0 {
		s := 1 / math.Sqrt(norm)
		for i := range sp.val {
			sp.val[i] *= s
		}
	}
	return sp
}

// EggBoxError measures the translation dependence of a projector's raw
// (pre-normalization) grid norm: the relative spread of <beta|beta> as the
// center moves by sub-grid offsets. Band-limited construction should push
// this toward zero; point sampling leaves a percent-level ripple on coarse
// grids. Exposed for diagnostics and tests.
func EggBoxError(g *grid.Grid, spec ProjectorSpec, bandLimited bool, samples int) float64 {
	pos := g.WavePointPositions()
	h := g.Cell.L[0] / float64(g.N[0]) // one grid spacing
	var min, max float64
	for s := 0; s < samples; s++ {
		frac := float64(s) / float64(samples)
		center := [3]float64{
			g.Cell.L[0]/2 + frac*h,
			g.Cell.L[1] / 2,
			g.Cell.L[2] / 2,
		}
		var sp sparseProjector
		if bandLimited {
			sp = buildBandLimited(g, pos, center, spec)
		} else {
			sp = buildSparse(pos, g.Cell.L, center, spec, g.DVWave())
		}
		// Metric: the normalized projector's overlap with the constant
		// function, <beta|1> = sum_j beta(r_j) dV. On the exact grid sum
		// this picks out the G = 0 Fourier component, which is rigorously
		// translation invariant for a band-limited projector (up to the
		// rmax tail truncation); point sampling leaves a ripple.
		var ref float64
		for k := range sp.idx {
			ref += sp.val[k]
		}
		ref *= g.DVWave()
		if s == 0 {
			min, max = ref, ref
		} else {
			if ref < min {
				min = ref
			}
			if ref > max {
				max = ref
			}
		}
	}
	if max == 0 {
		return 0
	}
	return (max - min) / math.Abs(max)
}
