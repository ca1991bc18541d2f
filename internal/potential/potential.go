// Package potential evaluates the density-dependent local potentials of
// Eq. 2: the electron density on the dense grid (Density), the static local
// pseudopotential from form factors and structure factors (BuildVloc,
// Local), and the effective potential V_loc + V_H[rho] + V_xc[rho] on the
// wavefunction grid with its energy pieces (AssembleVeff). These are the
// "others" components of the paper's cost breakdown (section 3.4) - the
// part that limits strong scaling once the Fock operator is accelerated.
// SCFPotential, Hartree and XCPotential are the unfused dense-grid chain,
// the reference the assembly is tested against.
package potential

import (
	"math"
	"sort"

	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
	"ptdft/internal/pseudo"
	"ptdft/internal/xc"
)

// Energies collects the local-potential energy contributions (Ha).
type Energies struct {
	Hartree float64
	XC      float64
	Local   float64
}

// BuildVloc assembles the static local pseudopotential on the dense grid in
// real space: V(G) = (1/Omega) * sum_s v_s(|G|) S_s(G), with the G = 0 term
// set to zero (it cancels against the Hartree and ion-ion G = 0 terms for a
// neutral cell; the constant shift does not affect dynamics).
func BuildVloc(g *grid.Grid, pots map[int]*pseudo.Potential) []float64 {
	coeff := make([]complex128, g.NDTot)
	invOmega := 1 / g.Volume()
	// Group atoms by species once.
	bySpecies := map[int][][3]float64{}
	for _, a := range g.Cell.Atoms {
		bySpecies[a.Species] = append(bySpecies[a.Species], a.Pos)
	}
	// Sum the species in key order: a map range would reorder the terms of
	// acc from call to call.
	species := make([]int, 0, len(bySpecies))
	for s := range bySpecies {
		if _, ok := pots[s]; ok {
			species = append(species, s)
		}
	}
	sort.Ints(species)
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				continue // G = 0 handled by convention
			}
			gv := g.GVecDense[k]
			var acc complex128
			for _, s := range species {
				ff := pots[s].LocalFormFactor(g2)
				var sre, sim float64
				for _, tau := range bySpecies[s] {
					ph := gv[0]*tau[0] + gv[1]*tau[1] + gv[2]*tau[2]
					s, c := math.Sincos(-ph)
					sre += c
					sim += s
				}
				acc += complex(ff*sre, ff*sim)
			}
			coeff[k] = acc * complex(invOmega, 0)
		}
	})
	field := make([]complex128, g.NDTot)
	g.DenseInverse(field, coeff)
	out := make([]float64, g.NDTot)
	for i, v := range field {
		out[i] = real(v)
	}
	return out
}

// Density accumulates the electron density rho(r) = occ * sum_i |psi_i(r)|^2
// on the dense grid from sphere-coefficient bands (band-major, nb x NG).
// occ is the orbital occupation (2 for spin-restricted).
//
// The sum has one fixed shape whatever the worker count: bands are cut into
// groups of lanes.Width, each group's |psi|^2 is summed in band order into
// a partial density of its own, and the partials are folded into rho in
// group order. Workers only decide how many groups are in flight, so the
// result is the same bits at 1, 2 or N workers and from run to run. Each
// orbital is synthesized by the grid's pruned dense transform into
// grid-owned scratch; only rho is allocated.
func Density(g *grid.Grid, bands []complex128, nb int, occ float64) []float64 {
	rho := make([]float64, g.NDTot)
	ngroups := (nb + lanes.Width - 1) / lanes.Width
	nw := parallel.NumWorkers(ngroups)
	wss := g.AcquireDenseScratch(nw)
	scale := occ / g.Volume()
	for g0 := 0; g0 < ngroups; g0 += nw {
		n := min(nw, ngroups-g0)
		if n == 1 {
			// No closure, no goroutine: the one-worker path allocates nothing.
			groupDensity(g, wss[0], bands, nb, g0)
		} else {
			parallel.For(n, func(i int) { groupDensity(g, wss[i], bands, nb, g0+i) })
		}
		for _, ws := range wss[:n] {
			for j, v := range ws.Acc {
				rho[j] += scale * v
			}
		}
	}
	g.ReleaseDenseScratch(wss)
	return rho
}

// groupDensity leaves sum_i |sum_G c_G exp(iG.r)|^2 over the bands of group
// gi (bands [gi*Width, (gi+1)*Width) below nb), in band order, in ws.Acc.
func groupDensity(g *grid.Grid, ws *grid.DenseScratch, bands []complex128, nb, gi int) {
	clear(ws.Acc)
	for i := gi * lanes.Width; i < min((gi+1)*lanes.Width, nb); i++ {
		g.ToRealDenseSlabWS(ws.Box, bands[i*g.NG:(i+1)*g.NG], ws.WS)
		lanes.AddNorm2(ws.Acc, ws.Box)
	}
}

// Hartree solves the Poisson equation for the given density and returns the
// Hartree potential on the dense grid together with the Hartree energy.
// The G = 0 component is dropped (jellium compensation).
func Hartree(g *grid.Grid, rho []float64) ([]float64, float64) {
	if len(rho) != g.NDTot {
		panic("potential: Hartree buffer size mismatch")
	}
	work := make([]complex128, g.NDTot)
	for i, r := range rho {
		work[i] = complex(r, 0)
	}
	g.DenseForward(work, work)
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				work[k] = 0
				continue
			}
			work[k] *= complex(4*math.Pi/g2, 0)
		}
	})
	g.DenseInverse(work, work)
	vh := make([]float64, g.NDTot)
	for i, v := range work {
		vh[i] = real(v)
	}
	var eh float64
	for i := range rho {
		eh += vh[i] * rho[i]
	}
	eh *= 0.5 * g.DV()
	return vh, eh
}

// xcBlock is the block length of the point-wise XC pass. It is fixed, so
// the per-block partial sums - and the energies folded from them in block
// order - are the same bits at any worker count.
const xcBlock = 2048

// pointwise fills v with v_xc[rho] and returns the real-space sums
// sum eps_xc*rho and sum vloc*rho (vloc may be nil), without the volume
// element. Workers only decide how many blocks are in flight.
func pointwise(v, rho, vloc []float64, exScale float64) (exc, eloc float64) {
	n := len(rho)
	nblk := (n + xcBlock - 1) / xcBlock
	if parallel.NumWorkers(nblk) == 1 {
		// No closure, no partial table: the one-worker path allocates nothing.
		for b := 0; b < nblk; b++ {
			x, l := pointwiseBlock(v, rho, vloc, exScale, b)
			exc += x
			eloc += l
		}
		return exc, eloc
	}
	part := make([][2]float64, nblk)
	parallel.For(nblk, func(b int) {
		part[b][0], part[b][1] = pointwiseBlock(v, rho, vloc, exScale, b)
	})
	for _, p := range part {
		exc += p[0]
		eloc += p[1]
	}
	return exc, eloc
}

func pointwiseBlock(v, rho, vloc []float64, exScale float64, b int) (exc, eloc float64) {
	for i := b * xcBlock; i < min((b+1)*xcBlock, len(rho)); i++ {
		eps, pot := xc.LDA(rho[i], exScale)
		v[i] = pot
		exc += eps * rho[i]
		if vloc != nil {
			eloc += vloc[i] * rho[i]
		}
	}
	return exc, eloc
}

// XCPotential evaluates the semi-local exchange-correlation potential and
// energy for the density. exScale attenuates the semi-local exchange when a
// hybrid functional carries part of it through the Fock operator.
func XCPotential(rho []float64, exScale, dv float64) ([]float64, float64) {
	v := make([]float64, len(rho))
	exc, _ := pointwise(v, rho, nil, exScale)
	return v, exc * dv
}

// SCFPotential is the dense-grid reference of AssembleVeff: Veff = Vloc +
// VH + Vxc on the dense grid through three scalar transforms, nothing
// fused, with the energy pieces.
func SCFPotential(g *grid.Grid, rho, vloc []float64, exScale float64) ([]float64, Energies) {
	vh, eh := Hartree(g, rho)
	vxc, exc := XCPotential(rho, exScale, g.DV())
	var eloc float64
	veff := make([]float64, g.NDTot)
	for i := range veff {
		veff[i] = vloc[i] + vh[i] + vxc[i]
		eloc += vloc[i] * rho[i]
	}
	eloc *= g.DV()
	return veff, Energies{Hartree: eh, XC: exc, Local: eloc}
}

// Local is the static local pseudopotential in the two forms the assembly
// reads: on the dense grid (E_loc, forces) and as Fourier coefficients on
// the wave-box G's. Replaced as a whole when the atoms move.
type Local struct {
	Dense []float64
	WaveG lanes.Slab
}

// NewLocal wraps a dense-grid local potential (BuildVloc) and transforms it
// once for AssembleVeff.
func NewLocal(g *grid.Grid, dense []float64) *Local {
	if len(dense) != g.NDTot {
		panic("potential: NewLocal buffer size mismatch")
	}
	loc := &Local{Dense: dense, WaveG: lanes.New(g.NTot)}
	wss := g.AcquireDenseScratch(1)
	z := wss[0].Box
	copy(z.Re, dense)
	clear(z.Im)
	g.PlanD.RawSlabWS(z, z, false, wss[0].WS)
	inv := 1 / float64(g.NDTot)
	for i, k := range g.WaveToDense {
		loc.WaveG.Re[i] = z.Re[k] * inv
		loc.WaveG.Im[i] = z.Im[k] * inv
	}
	g.ReleaseDenseScratch(wss)
	return loc
}

// splitPair separates the spectra of two real fields transformed together
// as z = f + i g, at dense-box point k whose -G partner is m: by Hermitian
// symmetry F_k = (Z_k + conj Z_m)/2 and G_k = (Z_k - conj Z_m)/2i. It
// returns 2 F_k and 2 G_k (both real where m == k: G = 0 and the Nyquist
// points of an even box).
func splitPair(z lanes.Slab, k, m int32) (f2, g2 complex128) {
	a, b, c, d := z.Re[k], z.Im[k], z.Re[m], z.Im[m]
	return complex(a+c, b-d), complex(b+d, c-a)
}

// AssembleVeff builds the effective local potential Vloc + VH[rho] +
// Vxc[rho] on the wavefunction grid into veffWave and returns the energy
// pieces, in one dense transform: rho and the point-wise v_xc ride the Re
// and Im halves of one grid-owned slab through a forward transform,
// splitPair recovers both spectra, V_eff,G = V_loc,G + 4 pi rho_G/G^2 +
// v_xc,G is assembled on the wave-box G's only (each Miller index copied
// from the dense box) and one wave-box inverse synthesizes it, real part
// kept. E_H is (Omega/2) sum_G 4 pi |rho_G|^2/G^2 over the full dense
// spectrum in index order. Nothing depends on the worker count, and at one
// worker nothing is allocated (DESIGN.md section 5).
func AssembleVeff(g *grid.Grid, veffWave, rho []float64, loc *Local, exScale float64) Energies {
	if len(rho) != g.NDTot || len(veffWave) != g.NTot || len(loc.Dense) != g.NDTot {
		panic("potential: AssembleVeff buffer size mismatch")
	}
	wss := g.AcquireDenseScratch(1)
	ws := wss[0]
	z := ws.Box
	copy(z.Re, rho)
	exc, eloc := pointwise(z.Im, rho, loc.Dense, exScale)
	g.PlanD.RawSlabWS(z, z, false, ws.WS)

	coul, minus := g.CoulombDense, g.MinusGDense
	var eh float64
	for k, m := range minus {
		r2, _ := splitPair(z, int32(k), m)
		eh += coul[k] * (real(r2)*real(r2) + imag(r2)*imag(r2))
	}
	// Unnormalized transform, doubled coefficient: rho_G = r2 / (2 NDTot).
	half := 0.5 / float64(g.NDTot)
	eh *= 0.5 * g.Volume() * half * half

	// After the inverse the real part is in place; the rest is dropped.
	w := lanes.Slab{Re: veffWave, Im: ws.Acc[:g.NTot]}
	for i, k := range g.WaveToDense {
		r2, v2 := splitPair(z, k, minus[k])
		w.Re[i] = loc.WaveG.Re[i] + half*(coul[k]*real(r2)+real(v2))
		w.Im[i] = loc.WaveG.Im[i] + half*(coul[k]*imag(r2)+imag(v2))
	}
	fws := g.Plan.CheckoutWorkspace()
	g.Plan.RawSlabWS(w, w, true, fws)
	g.Plan.ReturnWorkspace(fws)
	g.ReleaseDenseScratch(wss)
	return Energies{Hartree: eh, XC: exc * g.DV(), Local: eloc * g.DV()}
}

// IntegrateDensity returns the total electron count of a dense-grid density.
func IntegrateDensity(g *grid.Grid, rho []float64) float64 {
	var s float64
	for _, r := range rho {
		s += r
	}
	return s * g.DV()
}

// DensityDiff returns the L1 density difference per electron,
// norm = integral |rho1 - rho2| dr / Nelec, the SCF convergence monitor of
// section 4 (stopping criterion 1e-6).
func DensityDiff(g *grid.Grid, rho1, rho2 []float64, nelec float64) float64 {
	var s float64
	for i := range rho1 {
		s += math.Abs(rho1[i] - rho2[i])
	}
	return s * g.DV() / nelec
}
