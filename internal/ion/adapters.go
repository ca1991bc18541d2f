package ion

import (
	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/pseudo"
)

// DistElectrons couples one rank of the distributed dist.PTCNSolver to the
// ion integrator. Every method is collective: all ranks drive their
// replicated Verlet integrators through the same call sequence, and the
// force assembly allreduces in deterministic rank order, so the replicated
// ion trajectories are bit-identical.
type DistElectrons struct {
	S *dist.PTCNSolver
	// Step is the electronic step of the solver's block: S.Step (PT-CN)
	// when nil, S.StepRK4 for the explicit baseline.
	Step  func(local []complex128, dt float64) ([]complex128, core.StepStats, error)
	Local []complex128 // this rank's band block (current state)
	Pots  map[int]*pseudo.Potential
	SCF   int // cumulative inner-SCF iterations, for per-ion-step reporting
}

// StepElectrons advances this rank's band block by one step. Collective.
func (de *DistElectrons) StepElectrons(dt float64) error {
	step := de.Step
	if step == nil {
		step = de.S.Step
	}
	local, stats, err := step(de.Local, dt)
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
