// Package observe computes the physical observables of an rt-TDDFT run:
// total energy, macroscopic current (the velocity-gauge response quantity),
// the integrated dipole, and the absorption spectrum from a delta-kick
// response - the workloads the paper's introduction motivates (light
// absorption, charge dynamics).
package observe

import (
	"math"
	"math/cmplx"

	"ptdft/internal/core"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/linalg"
)

// Current returns the macroscopic current density J(t) = (occ/Omega) *
// sum_b <psi_b| (-i grad + A) |psi_b> for sphere-coefficient bands. In the
// plane-wave basis the expectation is sum_G (G+A) |c_G|^2 per band.
//
// The commutator correction [V_nl, r] of the nonlocal pseudopotential is
// neglected, the common velocity-gauge approximation; with the weak model
// projectors used here its effect on spectra is a few-percent amplitude
// rescaling and does not shift peak positions.
func Current(s *core.System, psi []complex128) [3]float64 {
	j := CurrentPartial(s.G, s.H.Field(), psi, s.NB)
	f := s.Occ / s.G.Volume()
	return [3]float64{j[0] * f, j[1] * f, j[2] * f}
}

// CurrentPartial returns the raw (G+A)-weighted band sums for nb
// band-major bands, without the occ/volume prefactor. Shared by Current
// and the distributed solver, which allreduces per-rank partials before
// scaling.
func CurrentPartial(g *grid.Grid, a [3]float64, psi []complex128, nb int) [3]float64 {
	ng := g.NG
	var jx, jy, jz float64
	for b := 0; b < nb; b++ {
		c := psi[b*ng : (b+1)*ng]
		for s := 0; s < ng; s++ {
			w := real(c[s])*real(c[s]) + imag(c[s])*imag(c[s])
			gv := g.GVec[s]
			jx += (gv[0] + a[0]) * w
			jy += (gv[1] + a[1]) * w
			jz += (gv[2] + a[2]) * w
		}
	}
	return [3]float64{jx, jy, jz}
}

// Energy evaluates the total energy breakdown with H fully refreshed from
// psi at time t (one extra Fock application per step, as the paper counts:
// 24 = 22 SCF + 1 residual + 1 energy).
func Energy(s *core.System, psi []complex128, t float64) hamiltonian.EnergyBreakdown {
	s.EnsurePrepared(psi, t)
	return s.H.TotalEnergy(psi, s.NB, s.Occ)
}

// LayerCharge integrates the electron density over the slab
// zLo <= z < zHi (Cartesian bohr, axis z), the region charge used to track
// interlayer charge transfer.
func LayerCharge(g *grid.Grid, rho []float64, zLo, zHi float64) float64 {
	nd := g.ND
	lz := g.Cell.L[2]
	var q float64
	idx := 0
	for ix := 0; ix < nd[0]; ix++ {
		for iy := 0; iy < nd[1]; iy++ {
			for iz := 0; iz < nd[2]; iz++ {
				z := float64(iz) / float64(nd[2]) * lz
				if z >= zLo && z < zHi {
					q += rho[idx]
				}
				idx++
			}
		}
	}
	return q * g.DV()
}

// ExcitedElectrons counts the electrons promoted out of the initial
// occupied subspace - the excited-carrier observable of the paper's
// motivating applications ("excited carrier dynamics"):
//
//	n_exc(t) = Nelec - occ * sum_ij |<phi_i(0)|psi_j(t)>|^2.
//
// Gauge invariant, so PT orbitals can be compared directly against the
// t = 0 eigenstates.
func ExcitedElectrons(s *core.System, psi0, psi []complex128) float64 {
	nb := s.NB
	ng := s.G.NG
	overlap := make([]complex128, nb*nb)
	linalg.Overlap(overlap, psi0, psi, nb, nb, ng)
	var stay float64
	for _, v := range overlap {
		stay += real(v)*real(v) + imag(v)*imag(v)
	}
	return s.Occ * (float64(nb) - stay)
}

// AbsorptionSpectrum computes the optical response from the current after
// a delta kick A(t>0) = k: the complex conductivity sigma(omega) =
// -J(omega)/k with J(omega) = int J(t) exp(i omega t - eta t) dt.
// Sample i of jz is taken at t = t0 + i*dt: propagation drivers that record
// the current after each step (the first sample at t = dt) must pass
// t0 = dt, or every sample is transformed with a phase one sample too
// early, tilting the phase of Re sigma linearly in omega. It returns
// (omegas, Re sigma) on nw points up to omegaMax (au). eta is an
// exponential damping that models finite simulation time.
func AbsorptionSpectrum(jz []float64, dt, t0, kick, omegaMax float64, nw int, eta float64) (omegas, sigma []float64) {
	omegas = make([]float64, nw)
	sigma = make([]float64, nw)
	for w := 0; w < nw; w++ {
		omega := omegaMax * float64(w+1) / float64(nw)
		omegas[w] = omega
		var acc complex128
		for i, j := range jz {
			t := t0 + float64(i)*dt
			acc += complex(j*math.Exp(-eta*t), 0) * cmplx.Exp(complex(0, omega*t))
		}
		acc *= complex(dt, 0)
		sigma[w] = real(-acc / complex(kick, 0))
	}
	return omegas, sigma
}
