package ion

import (
	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/observe"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
)

// SerialElectrons couples the serial core.PTCN propagator to the ion
// integrator. It owns the evolving orbital set; Psi always holds the
// current state.
type SerialElectrons struct {
	P    *core.PTCN
	Psi  []complex128
	Pots map[int]*pseudo.Potential
	SCF  int // cumulative inner-SCF iterations, for per-ion-step reporting
}

// StepElectrons advances the orbitals by one PT-CN step.
func (se *SerialElectrons) StepElectrons(dt float64) error {
	psi, stats, err := se.P.Step(se.Psi, dt)
	if err != nil {
		return err
	}
	se.Psi = psi
	se.SCF += stats.SCFIterations
	return nil
}

// ElectronForces assembles the electron contribution to the
// Hellmann-Feynman force from the current orbitals: the local
// pseudopotential force from the density plus the nonlocal projector
// force.
func (se *SerialElectrons) ElectronForces() ([][3]float64, error) {
	sys := se.P.Sys
	rho := potential.Density(sys.G, se.Psi, sys.NB, sys.Occ)
	f := LocalForces(sys.G, se.Pots, rho)
	if err := sys.H.NL.Forces(f, sys.G, se.Psi, sys.NB, sys.Occ); err != nil {
		return nil, err
	}
	return f, nil
}

// GeometryChanged rebuilds the static operators through the propagator's
// coupled-step hook.
func (se *SerialElectrons) GeometryChanged() error {
	se.P.IonGeometryChanged()
	return nil
}

// ElectronicEnergy evaluates the electronic total energy with H refreshed
// from the current orbitals.
func (se *SerialElectrons) ElectronicEnergy() (float64, error) {
	return observe.Energy(se.P.Sys, se.Psi, se.P.Time).Total(), nil
}

// DistElectrons couples one rank of the distributed dist.PTCNSolver to the
// ion integrator. Every method is collective: all ranks drive their
// replicated Verlet integrators through the same call sequence, and the
// force assembly allreduces in deterministic rank order, so the replicated
// ion trajectories are bit-identical.
type DistElectrons struct {
	S     *dist.PTCNSolver
	Local []complex128 // this rank's band block (current state)
	Pots  map[int]*pseudo.Potential
	SCF   int // cumulative inner-SCF iterations, for per-ion-step reporting
}

// StepElectrons advances this rank's band block by one PT-CN step.
// Collective.
func (de *DistElectrons) StepElectrons(dt float64) error {
	local, stats, err := de.S.Step(de.Local, dt)
	if err != nil {
		return err
	}
	de.Local = local
	de.SCF += stats.SCFIterations
	return nil
}

// ElectronForces assembles the Hellmann-Feynman electron force: the local
// part from the allreduced global density (identical on every rank), the
// nonlocal part from this rank's band block allreduced across ranks.
// Collective.
func (de *DistElectrons) ElectronForces() ([][3]float64, error) {
	g := de.S.D.G
	rho := de.S.Density(de.Local)
	f := LocalForces(g, de.Pots, rho)
	nbl := len(de.Local) / g.NG
	nlf := make([][3]float64, g.Cell.NumAtoms())
	if err := de.S.H.NL.Forces(nlf, g, de.Local, nbl, de.S.Occ); err != nil {
		return nil, err
	}
	de.S.AllreduceForces(nlf)
	if err := addInto(f, nlf); err != nil {
		return nil, err
	}
	return f, nil
}

// GeometryChanged rebuilds this rank's static operators through the
// solver's coupled-step hook.
func (de *DistElectrons) GeometryChanged() error {
	de.S.IonGeometryChanged()
	return nil
}

// ElectronicEnergy evaluates the electronic total energy of the global
// band set. Collective.
func (de *DistElectrons) ElectronicEnergy() (float64, error) {
	return de.S.TotalEnergy(de.Local, de.S.Time).Total(), nil
}
