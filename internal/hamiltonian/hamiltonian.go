// Package hamiltonian assembles and applies the time-dependent Kohn-Sham
// Hamiltonian of Eq. 2:
//
//	H(t, P) = 1/2 |G + A(t)|^2 + V_loc + V_nl + V_Hxc[rho] + V_X[P]
//
// in the plane-wave basis: the kinetic term (with the velocity-gauge laser
// coupling A(t)) is diagonal in G space; the local potential acts
// point-wise in real space on the wavefunction grid; the nonlocal
// pseudopotential uses sparse real-space projectors; and the Fock exchange
// operator performs the N^2 FFT Poisson solves of Eq. 3. H*Psi is the inner
// kernel whose cost breakdown Table 1 reports.
//
// Between the two transforms of a band application everything works on
// split re/im boxes (lanes.Slab), the layout fock and dist compute in. The
// local potential is kept in the one form Apply reads (veffWave, written in
// place by potential.AssembleVeff); MarkPrepared lets the owner skip a
// density build and an assembly for a state H already holds.
package hamiltonian

import (
	"fmt"
	"os"
	"sync"

	"ptdft/internal/fock"
	"ptdft/internal/fourier"
	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/trace"
	"ptdft/internal/xc"
)

// Hamiltonian holds the operator state. The density- and gauge-dependent
// parts are refreshed with UpdatePotential, SetField and SetFockOrbitals;
// Apply is safe for concurrent use between refreshes.
type Hamiltonian struct {
	G   *grid.Grid
	NL  *pseudo.Nonlocal
	Hyb xc.HybridParams

	hybrid   bool
	pots     map[int]*pseudo.Potential // retained for geometry rebuilds
	cfg      Config
	vloc     *potential.Local
	veffWave []float64 // Vloc+VH+Vxc on the wavefunction grid
	aField   [3]float64
	kin      []float64 // 1/2|G+k+A|^2 per sphere entry, rebuilt by rebuildKinetic
	fockOp   *fock.Operator
	ace      *fock.ACE
	useACE   bool // ACE requested; the active operator is ACEActive()

	// ACE fallback bookkeeping: when the compression fails for one
	// reference set (degenerate orbitals), that refresh falls back to the
	// exact operator, the failure is counted and kept inspectable, and the
	// next refresh retries - the request is never silently dropped for the
	// rest of the run.
	aceErr       error
	aceFallbacks int
	aceWarn      sync.Once

	// Bloch-vector state for k-point sampling (section 3.1): the kinetic
	// term becomes 1/2|G+k+A|^2 and the nonlocal projectors carry the
	// exp(-ik.r) twist. Zero k with a nil nlBloch is the Gamma point.
	bloch   [3]float64
	nlBloch *pseudo.NonlocalBloch

	// Energy bookkeeping from the last UpdatePotential call.
	PotEnergies potential.Energies

	// prepPsi and prepT are the "H is prepared for (Psi, t)" mark of
	// MarkPrepared; nil when no state is marked.
	prepPsi *complex128
	prepT   float64

	// tr is forwarded to every exchange operator this Hamiltonian builds
	// (the propagation operator is rebuilt on each orbital refresh, so the
	// track must live here). nil disables span recording.
	tr *trace.Track

	// Per-worker apply scratch, recycled across Apply/TotalEnergy calls.
	scratch parallel.ScratchPool[*applyScratch]
}

// applyScratch is the per-worker scratch of one band application: the two
// real-space boxes, a sphere-coefficient vector and the FFT line scratch.
type applyScratch struct {
	box, vbox lanes.Slab
	c         []complex128
	fws       *fourier.Workspace3
}

func (h *Hamiltonian) newScratch() *applyScratch {
	return &applyScratch{
		box:  lanes.New(h.G.NTot),
		vbox: lanes.New(h.G.NTot),
		c:    make([]complex128, h.G.NG),
		fws:  h.G.Plan.NewWorkspace(),
	}
}

// Config selects the functional and discretization options.
type Config struct {
	Hybrid bool            // include the Fock exchange operator
	UseACE bool            // apply exchange through the ACE compression
	Params xc.HybridParams // mixing/screening; ignored unless Hybrid
	// IonDynamics builds the force-ready nonlocal projectors
	// (pseudo.BuildNonlocalMD): band-limited to the G-sphere, full-grid
	// support, with the center-gradient fields the Hellmann-Feynman force
	// assembly needs. Required for Ehrenfest MD.
	IonDynamics bool
}

// buildNL constructs the nonlocal projector set the configuration selects.
func buildNL(g *grid.Grid, pots map[int]*pseudo.Potential, cfg Config) *pseudo.Nonlocal {
	if cfg.IonDynamics {
		return pseudo.BuildNonlocalMD(g, pots)
	}
	return pseudo.BuildNonlocal(g, pots)
}

// New builds a Hamiltonian for the grid, assembling the static local
// pseudopotential from pots. The density-dependent parts start at zero.
func New(g *grid.Grid, pots map[int]*pseudo.Potential, cfg Config) *Hamiltonian {
	h := &Hamiltonian{
		G:      g,
		NL:     buildNL(g, pots, cfg),
		Hyb:    cfg.Params,
		hybrid: cfg.Hybrid,
		useACE: cfg.UseACE,
		pots:   pots,
		cfg:    cfg,
		vloc:   potential.NewLocal(g, potential.BuildVloc(g, pots)),
	}
	h.veffWave = make([]float64, g.NTot)
	h.kin = make([]float64, g.NG)
	h.rebuildKinetic()
	h.scratch.New = h.newScratch
	return h
}

// RebuildGeometry re-derives the atom-position-dependent static operators
// - the nonlocal projectors and the local pseudopotential (form factors x
// structure factors) - from the cell's current atom positions. The ion
// integrator calls this after every drift. The density-dependent
// potentials are refreshed by the next UpdatePotential as usual, and the
// Fock/ACE exchange carries no explicit position dependence.
func (h *Hamiltonian) RebuildGeometry() {
	h.NL = buildNL(h.G, h.pots, h.cfg)
	h.vloc = potential.NewLocal(h.G, potential.BuildVloc(h.G, h.pots))
	h.prepPsi = nil
}

// MarkPrepared records that the owner of this Hamiltonian (core.System,
// the distributed solver) has just refreshed every state- and
// time-dependent piece of it for the orbitals psi at time t, so the next
// consumer of the same state can skip the density build and the potential
// assembly. psi is named by its storage: a marked band set must not be
// edited in place. Every method that changes what Apply or the energy
// bookkeeping returns clears the mark, whoever calls it, so two propagators
// taking turns on one Hamiltonian never read each other's preparation.
func (h *Hamiltonian) MarkPrepared(psi []complex128, t float64) {
	h.prepPsi, h.prepT = &psi[0], t
}

// PreparedFor reports whether the MarkPrepared mark still stands for
// (psi, t) and the field on H is a, the field the owner would install at t.
func (h *Hamiltonian) PreparedFor(psi []complex128, t float64, a [3]float64) bool {
	return h.prepPsi != nil && len(psi) > 0 && h.prepPsi == &psi[0] && h.prepT == t && h.aField == a
}

// Hybrid reports whether the Fock exchange operator is active.
func (h *Hamiltonian) Hybrid() bool { return h.hybrid }

// ExScale returns the semi-local exchange attenuation: 1 - alpha when the
// hybrid carries alpha of the exchange through the Fock operator.
func (h *Hamiltonian) ExScale() float64 {
	if h.hybrid {
		return 1 - h.Hyb.Alpha
	}
	return 1
}

// UpdatePotential recomputes V_Hxc from the density (dense grid) and
// assembles the total local potential on the wavefunction grid.
func (h *Hamiltonian) UpdatePotential(rho []float64) {
	h.UpdatePotentialScaled(rho, h.ExScale())
}

// UpdatePotentialScaled is UpdatePotential with the semi-local exchange
// attenuation supplied by the caller: the distributed solver's Hamiltonian
// is built without the hybrid term, so the 1 - alpha belongs to the solver.
func (h *Hamiltonian) UpdatePotentialScaled(rho []float64, exScale float64) {
	h.PotEnergies = potential.AssembleVeff(h.G, h.veffWave, rho, h.vloc, exScale)
	h.prepPsi = nil
}

// VlocDense exposes the static local pseudopotential on the dense grid
// (read-only use).
func (h *Hamiltonian) VlocDense() []float64 { return h.vloc.Dense }

// SetField sets the vector potential entering the kinetic term.
func (h *Hamiltonian) SetField(a [3]float64) {
	if a != h.aField {
		h.prepPsi = nil
		h.aField = a
		h.rebuildKinetic()
	}
}

// Field returns the current vector potential.
func (h *Hamiltonian) Field() [3]float64 { return h.aField }

// SetFockOrbitals refreshes the exchange reference orbitals (the density
// matrix P of V_X[P]). phi is band-major sphere coefficients.
func (h *Hamiltonian) SetFockOrbitals(phi []complex128, nb int) {
	if !h.hybrid {
		return
	}
	h.prepPsi = nil
	if h.fockOp == nil {
		h.fockOp = fock.NewOperator(h.G, h.Hyb, phi, nb)
		h.fockOp.SetTrace(h.tr)
	} else {
		h.fockOp.SetOrbitals(phi, nb)
	}
	if h.useACE {
		ace, err := fock.NewACE(h.fockOp, phi, nb)
		if err != nil {
			// Fall back to the exact operator for this reference set only
			// (the compression can fail only for degenerate sets), surface
			// the downgrade, and retry at the next refresh.
			h.ace = nil
			h.aceErr = err
			h.aceFallbacks++
			h.aceWarn.Do(func() {
				fmt.Fprintf(os.Stderr, "hamiltonian: ACE compression failed, falling back to the exact exchange operator for this refresh: %v\n", err)
			})
			return
		}
		h.ace = ace
		h.aceErr = nil
	}
}

// ACEActive reports whether the exchange currently propagates through the
// ACE compression (requested and successfully built for the present
// reference set).
func (h *Hamiltonian) ACEActive() bool { return h.hybrid && h.useACE && h.ace != nil }

// ACEFallbacks reports how many exchange refreshes fell back to the exact
// operator because the ACE construction failed, and the error of the most
// recent refresh (nil when the current operator is the compression). Users
// read this to learn which operator actually propagated their run.
func (h *Hamiltonian) ACEFallbacks() (int, error) { return h.aceFallbacks, h.aceErr }

// SetTrace attaches a span track to every exchange operator this
// Hamiltonian builds (current and future - the propagation operator is
// reconstructed on each reference refresh). nil disables recording.
func (h *Hamiltonian) SetTrace(t *trace.Track) {
	h.tr = t
	if h.fockOp != nil {
		h.fockOp.SetTrace(t)
	}
}

// SetBloch selects a k-point: kinetic 1/2|G+k+A|^2 and phase-twisted
// nonlocal projectors. Pass a zero vector and nil to return to Gamma.
// Used for band-structure evaluation at fixed potential; the TDDFT
// propagators operate at Gamma as in the paper's tests.
func (h *Hamiltonian) SetBloch(k [3]float64, nl *pseudo.NonlocalBloch) {
	h.bloch = k
	h.nlBloch = nl
	h.rebuildKinetic()
	h.prepPsi = nil
}

// KineticFactor returns 1/2 |G_s + k + A|^2 for sphere entry s.
func (h *Hamiltonian) KineticFactor(s int) float64 {
	g := h.G.GVec[s]
	dx := g[0] + h.bloch[0] + h.aField[0]
	dy := g[1] + h.bloch[1] + h.aField[1]
	dz := g[2] + h.bloch[2] + h.aField[2]
	return 0.5 * (dx*dx + dy*dy + dz*dz)
}

// rebuildKinetic refills the kinetic diagonal after the field or the Bloch
// vector changed (an ion drift moves neither them nor the G vectors).
func (h *Hamiltonian) rebuildKinetic() {
	for s := range h.kin {
		h.kin[s] = h.KineticFactor(s)
	}
}

// Kinetic returns the kinetic diagonal 1/2 |G_s + k + A|^2 over the sphere
// (read-only; SetField and SetBloch rewrite it in place).
func (h *Hamiltonian) Kinetic() []float64 { return h.kin }

// applyOne computes dst = H src for a single band of sphere coefficients,
// the semi-local terms only, using caller-provided scratch. No worker-pool
// parallelism: callers parallelize over bands.
func (h *Hamiltonian) applyOne(dst, src []complex128, sc *applyScratch) {
	ng := h.G.NG
	for s, k := range h.kin {
		dst[s] = complex(k, 0) * src[s]
	}
	box, vbox := sc.box, sc.vbox
	h.G.ToRealSlabWS(box, src, sc.fws)
	for k, v := range h.veffWave {
		vbox.Re[k] = v * box.Re[k]
		vbox.Im[k] = v * box.Im[k]
	}
	if h.nlBloch != nil {
		h.nlBloch.Apply(vbox, box)
	} else {
		h.NL.Apply(vbox, box)
	}
	h.G.FromRealSlabWS(sc.c, vbox, sc.fws)
	for s := 0; s < ng; s++ {
		dst[s] += sc.c[s]
	}
}

// Apply computes dst = H src for nb band-major sphere-coefficient bands:
// the semi-local terms band-parallel, with one scratch workspace per
// worker, then the exchange through the active operator. dst and src must
// not alias. The exact operator routes its own reference set - the PT-CN
// refresh, where SetFockOrbitals(psi) is followed by Apply(_, psi) -
// through the symmetry-halved fock.Operator.ApplyToReference.
func (h *Hamiltonian) Apply(dst, src []complex128, nb int) {
	ng := h.G.NG
	if len(dst) != nb*ng || len(src) != nb*ng {
		panic("hamiltonian: Apply buffer size mismatch")
	}
	nw := parallel.NumWorkers(nb)
	wss := h.scratch.Acquire(nw)
	if nw <= 1 {
		// Serial fast path: no closure, no goroutines (zero-alloc).
		for j := 0; j < nb; j++ {
			h.applyOne(dst[j*ng:(j+1)*ng], src[j*ng:(j+1)*ng], wss[0])
		}
	} else {
		parallel.ForWorker(nb, func(w, j int) {
			h.applyOne(dst[j*ng:(j+1)*ng], src[j*ng:(j+1)*ng], wss[w])
		})
	}
	h.scratch.Release(wss)
	// A failed ACE build (h.ace == nil despite useACE) must still apply
	// the exact operator: the fallback downgrades, never drops, the
	// exchange.
	switch {
	case h.ACEActive():
		h.ace.Apply(dst, src, nb)
	case h.hybrid && h.fockOp != nil:
		h.fockOp.Apply(dst, src, nb)
	}
}

// Energy terms for a band set. occ is the orbital occupation (2 for
// spin-restricted closed shell).
type EnergyBreakdown struct {
	Kinetic  float64
	Nonlocal float64
	Hartree  float64
	XC       float64
	Local    float64
	Exchange float64
}

// Total returns the total electronic energy (the arbitrary G = 0
// pseudopotential/Hartree constant excluded; see potential.BuildVloc).
func (e EnergyBreakdown) Total() float64 {
	return e.Kinetic + e.Nonlocal + e.Hartree + e.XC + e.Local + e.Exchange
}

// TotalEnergy evaluates the energy functional for orbitals psi and the
// density rho they generate. UpdatePotential(rho) must have been called so
// that the Hartree/XC/local bookkeeping matches rho.
func (h *Hamiltonian) TotalEnergy(psi []complex128, nb int, occ float64) EnergyBreakdown {
	ng := h.G.NG
	// Per-band terms land in their own slots and are summed in band order,
	// so the energy does not depend on which worker finishes first.
	terms := make([]float64, 2*nb)
	kin, nl := terms[:nb], terms[nb:]
	wss := h.scratch.Acquire(parallel.NumWorkers(nb))
	parallel.ForWorker(nb, func(w, j int) {
		c := psi[j*ng : (j+1)*ng]
		kin[j] = occ * h.KineticEnergyBand(c)
		sc := wss[w]
		h.G.ToRealSlabWS(sc.box, c, sc.fws)
		nl[j] = occ * h.NL.Energy(sc.box)
	})
	h.scratch.Release(wss)
	var ekin, enl float64
	for j := 0; j < nb; j++ {
		ekin += kin[j]
		enl += nl[j]
	}
	eb := EnergyBreakdown{
		Kinetic:  ekin,
		Nonlocal: enl,
		Hartree:  h.PotEnergies.Hartree,
		XC:       h.PotEnergies.XC,
		Local:    h.PotEnergies.Local,
	}
	if h.hybrid && h.fockOp != nil {
		eb.Exchange = h.fockOp.Energy(psi, nb)
	}
	return eb
}

// BandEnergies returns the diagonal <psi_j|H|psi_j> matrix elements.
func (h *Hamiltonian) BandEnergies(psi []complex128, nb int) []float64 {
	ng := h.G.NG
	hp := make([]complex128, nb*ng)
	h.Apply(hp, psi, nb)
	out := make([]float64, nb)
	for j := 0; j < nb; j++ {
		out[j] = real(linalg.Dot(psi[j*ng:(j+1)*ng], hp[j*ng:(j+1)*ng]))
	}
	return out
}

// KineticEnergyBand returns sum_s 1/2|G+A|^2 |c_s|^2 for one band, used by
// the eigensolver preconditioner.
func (h *Hamiltonian) KineticEnergyBand(c []complex128) float64 {
	var k float64
	for s := range c {
		v := c[s]
		k += h.kin[s] * (real(v)*real(v) + imag(v)*imag(v))
	}
	return k
}
