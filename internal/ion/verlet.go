package ion

import (
	"fmt"

	"ptdft/internal/lattice"
)

// Electrons is the electronic half of the coupled Ehrenfest system: the
// ion integrator drives it between force evaluations. dist.PTCNSolver
// plugs in through DistElectrons on every rank of a world (a serial run is
// the one-rank world); every method is collective, so all ranks run the
// integrator in lockstep on replicated ion state.
type Electrons interface {
	// StepElectrons advances the electronic state by one PT-CN step of dt.
	StepElectrons(dt float64) error
	// ElectronForces returns the electron contribution to the
	// Hellmann-Feynman force (local pseudopotential + nonlocal
	// projectors) of the current electronic state on the current geometry.
	ElectronForces() ([][3]float64, error)
	// GeometryChanged rebuilds the geometry-dependent operators (nonlocal
	// projectors, local potential) after the ion positions moved.
	GeometryChanged() error
	// ElectronicEnergy evaluates the electronic total energy.
	ElectronicEnergy() (float64, error)
}

// Verlet integrates the Ehrenfest equations of motion with velocity
// Verlet: one ion step of DtIon spans K electronic PT-CN steps of DtIon/K,
// the Mandal-et-al interleave stacked on top of the PT-CN (and optionally
// MTS) electronic cadence. The sequence per step is
//
//	v      += (DtIon/2) F(R, psi) / M        (half kick, cached force)
//	R      += (DtIon/2) v                    (half drift; operators rebuilt)
//	psi    -> K PT-CN steps of DtIon/K       (electrons at the MIDPOINT geometry)
//	R      += (DtIon/2) v                    (second half drift; rebuilt again)
//	F      =  F(R', psi')                    (new force, cached)
//	v      += (DtIon/2) F / M                (second half kick)
//
// Propagating the electrons under the midpoint geometry - rather than the
// end-of-drift one - keeps the electron-ion coupling time symmetric,
// removing the one-sided scheme's leading energy bias (measured 1.61e-3 ->
// 1.09e-3 Ha over a quarter period of the Si8 oscillation at dtIon = 8
// au; see EXPERIMENTS.md). The remaining drift is dt-independent - it is
// the wave-box aliasing of the applied local potential, a discretization
// consistency term, not integrator error (DESIGN.md deviation list). The
// ion positions still advance by the exact velocity-Verlet drift
// (velocity is constant across the two half drifts).
//
// The cached force F makes an interrupted trajectory restartable
// bit-compatibly: a checkpoint carries (R, v, F), so the resumed first
// half kick uses the identical force instead of a recomputation subject to
// parallel reduction order.
type Verlet struct {
	Cell *lattice.Cell
	El   Electrons

	Mass []float64    // per-atom ion mass (au)
	Vel  [][3]float64 // per-atom velocity (Bohr / au-time)
	F    [][3]float64 // cached total force (electron + ion-ion), Ha/Bohr
	EII  float64      // ion-ion energy at the current geometry (Ha)

	DtIon float64 // ion time step (au)
	K     int     // electronic PT-CN steps per ion step
	Steps int     // completed ion steps
}

// NewVerlet builds the integrator for the cell's atoms with zero initial
// velocities. The force cache starts empty; the first Step (or an explicit
// ComputeForces) fills it.
func NewVerlet(cell *lattice.Cell, el Electrons, dtIon float64, k int) (*Verlet, error) {
	if dtIon <= 0 {
		return nil, fmt.Errorf("ion: non-positive ion time step %g", dtIon)
	}
	if k < 1 {
		return nil, fmt.Errorf("ion: need at least one electronic step per ion step, got %d", k)
	}
	mass, err := cell.Masses()
	if err != nil {
		return nil, err
	}
	return &Verlet{
		Cell:  cell,
		El:    el,
		Mass:  mass,
		Vel:   make([][3]float64, cell.NumAtoms()),
		DtIon: dtIon,
		K:     k,
	}, nil
}

// ComputeForces refreshes the cached total force and the ion-ion energy
// from the current electronic state and geometry. Collective in
// distributed runs.
func (v *Verlet) ComputeForces() error {
	f, err := v.El.ElectronForces()
	if err != nil {
		return err
	}
	ew := Ewald(v.Cell)
	if err := addInto(f, ew.Forces); err != nil {
		return err
	}
	v.F = f
	v.EII = ew.Energy
	return nil
}

// Step advances the coupled system by one ion step (K electronic steps).
func (v *Verlet) Step() error {
	if v.F == nil {
		if err := v.ComputeForces(); err != nil {
			return err
		}
	}
	half := v.DtIon / 2
	for a := range v.Vel {
		for d := 0; d < 3; d++ {
			v.Vel[a][d] += half * v.F[a][d] / v.Mass[a]
		}
	}
	if err := v.drift(half); err != nil {
		return err
	}
	dtEl := v.DtIon / float64(v.K)
	for i := 0; i < v.K; i++ {
		if err := v.El.StepElectrons(dtEl); err != nil {
			return fmt.Errorf("ion: electronic step %d of ion step %d: %w", i, v.Steps, err)
		}
	}
	if err := v.drift(half); err != nil {
		return err
	}
	if err := v.ComputeForces(); err != nil {
		return err
	}
	for a := range v.Vel {
		for d := 0; d < 3; d++ {
			v.Vel[a][d] += half * v.F[a][d] / v.Mass[a]
		}
	}
	v.Steps++
	return nil
}

// drift advances the ion positions by dt at the current velocities and
// rebuilds the geometry-dependent operators.
func (v *Verlet) drift(dt float64) error {
	pos := v.Cell.Positions()
	for a := range pos {
		for d := 0; d < 3; d++ {
			pos[a][d] += dt * v.Vel[a][d]
		}
	}
	if err := v.Cell.SetPositions(pos); err != nil {
		return err
	}
	return v.El.GeometryChanged()
}

// KineticEnergy returns the ion kinetic energy sum_a M_a v_a^2 / 2 (Ha).
func (v *Verlet) KineticEnergy() float64 {
	var e float64
	for a, vel := range v.Vel {
		e += 0.5 * v.Mass[a] * (vel[0]*vel[0] + vel[1]*vel[1] + vel[2]*vel[2])
	}
	return e
}

// TotalEnergy evaluates the conserved quantity of the Ehrenfest dynamics:
// electronic total energy + ion kinetic energy + ion-ion energy. The
// ion-ion term comes from the force cache (ComputeForces/Step keep it in
// sync with the geometry). Collective in distributed runs.
func (v *Verlet) TotalEnergy() (float64, error) {
	if v.F == nil {
		if err := v.ComputeForces(); err != nil {
			return 0, err
		}
	}
	eel, err := v.El.ElectronicEnergy()
	if err != nil {
		return 0, err
	}
	return eel + v.KineticEnergy() + v.EII, nil
}

// Resume restores the integrator mid-trajectory from checkpointed state:
// positions are written into the cell (with the geometry-dependent
// operators rebuilt), velocities and the force cache installed verbatim,
// and the ion-ion energy re-derived from the restored geometry. Loading
// the cached force - rather than recomputing it - is what makes the
// resumed trajectory bit-compatible with the uninterrupted one.
func (v *Verlet) Resume(pos, vel, force [][3]float64, steps int) error {
	n := v.Cell.NumAtoms()
	if len(pos) != n || len(vel) != n || len(force) != n {
		return fmt.Errorf("ion: resume state holds %d/%d/%d atoms, cell has %d", len(pos), len(vel), len(force), n)
	}
	if err := v.Cell.SetPositions(pos); err != nil {
		return err
	}
	if err := v.El.GeometryChanged(); err != nil {
		return err
	}
	v.Vel = make([][3]float64, n)
	copy(v.Vel, vel)
	v.F = make([][3]float64, n)
	copy(v.F, force)
	v.EII = Ewald(v.Cell).Energy
	v.Steps = steps
	return nil
}
