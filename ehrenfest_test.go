// Ehrenfest integration tests: the coupled ion + PT-CN dynamics of
// internal/ion at the full-pipeline level - rank invariance of the
// trajectory, conservation of the total energy, and bit-compatible
// checkpoint-v3 resume - plus the no-laser electronic energy-conservation
// guard the ion work leans on.
package ptdft_test

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"ptdft/internal/checkpoint"
	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/ion"
	"ptdft/internal/lattice"
	"ptdft/internal/mpi"
	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// The Ehrenfest fixture: Si8 with atom 0 displaced along the (1,0,0)
// axis, hybrid functional, MD (gradient-capable) projectors. The ground
// state is converged once at the displaced geometry; every propagation
// clones the pristine cell so runs never share mutable geometry.
var (
	mdOnce sync.Once
	mdCell *lattice.Cell // pristine displaced geometry (never mutated)
	mdPsi  []complex128
	mdNB   int
)

const mdDisplacement = 0.15

func mdFixture(t *testing.T) (*lattice.Cell, []complex128, int) {
	t.Helper()
	mdOnce.Do(func() {
		cell := lattice.MustSiliconSupercell(1, 1, 1)
		if err := cell.DisplaceAtom(0, [3]float64{mdDisplacement, 0, 0}); err != nil {
			panic(err)
		}
		g := grid.MustNew(cell, 3)
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{Hybrid: true, Params: xc.HSE06(), IonDynamics: true})
		res, err := scf.GroundState(g, h, cell.NumBands(), scf.Defaults())
		if err != nil {
			panic(err)
		}
		mdCell = cell
		mdPsi = res.Psi
		mdNB = cell.NumBands()
	})
	return mdCell.Clone(), wavefunc.Clone(mdPsi), mdNB
}

// ehrenfestSerial propagates `steps` ion steps serially and returns the
// per-step total energies, the final positions and velocities, and the
// final orbitals.
func ehrenfestSerial(t *testing.T, cell *lattice.Cell, psi0 []complex128, nb int, hybrid bool, steps int, dtIon float64, k int) (energies []float64, pos, vel [][3]float64, psi []complex128) {
	t.Helper()
	g := grid.MustNew(cell, 3)
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{Hybrid: hybrid, Params: xc.HSE06(), IonDynamics: true})
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2}
	pt := core.NewPTCN(sys, core.DefaultPTCN())
	se := &ion.SerialElectrons{P: pt, Psi: wavefunc.Clone(psi0), Pots: siPots()}
	v, err := ion.NewVerlet(cell, se, dtIon, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if err := v.Step(); err != nil {
			t.Fatalf("ion step %d: %v", i, err)
		}
		e, err := v.TotalEnergy()
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, e)
	}
	return energies, cell.Positions(), append([][3]float64(nil), v.Vel...), se.Psi
}

// ehrenfestDistributed propagates the same trajectory over `ranks` ranks,
// each rank on its own cell clone, and returns rank 0's view.
func ehrenfestDistributed(t *testing.T, cell *lattice.Cell, psi0 []complex128, nb int, hybrid bool, ranks, steps int, dtIon float64, k int) (energies []float64, pos, vel [][3]float64, psi []complex128) {
	t.Helper()
	energies = make([]float64, steps)
	psi = make([]complex128, len(psi0))
	mpi.Run(ranks, func(c *mpi.Comm) {
		cellR := cell.Clone()
		g := grid.MustNew(cellR, 3)
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		h := hamiltonian.New(g, siPots(), hamiltonian.Config{IonDynamics: true})
		s := dist.NewPTCNSolver(d, h, xc.HSE06(), hybrid, nil, core.DefaultPTCN(), dist.ExchangeOptions{})
		lo, hi := d.BandRange(c.Rank())
		de := &ion.DistElectrons{S: s, Local: wavefunc.Clone(psi0[lo*g.NG : hi*g.NG]), Pots: siPots()}
		v, err := ion.NewVerlet(cellR, de, dtIon, k)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < steps; i++ {
			if err := v.Step(); err != nil {
				t.Errorf("rank %d ion step %d: %v", c.Rank(), i, err)
				return
			}
			e, err := v.TotalEnergy()
			if err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				energies[i] = e
			}
		}
		full := d.Gather(de.Local)
		if c.Rank() == 0 {
			copy(psi, full)
			pos = cellR.Positions()
			vel = append([][3]float64(nil), v.Vel...)
		}
	})
	return energies, pos, vel, psi
}

// TestEhrenfestRankInvariant is the acceptance pin: the hybrid Ehrenfest
// trajectory must be identical (1e-8) between the serial driver and 2- and
// 4-rank distributed runs - positions, velocities and per-step total
// energies. The distributed force assembly allreduces in deterministic
// rank order, so the only differences are reduction-order round-off.
func TestEhrenfestRankInvariant(t *testing.T) {
	cell, psi0, nb := mdFixture(t)
	const steps, dtIon, k = 3, 2.0, 2
	eS, posS, velS, _ := ehrenfestSerial(t, cell, psi0, nb, true, steps, dtIon, k)
	for _, ranks := range []int{2, 4} {
		eD, posD, velD, _ := ehrenfestDistributed(t, mdCell.Clone(), psi0, nb, true, ranks, steps, dtIon, k)
		for i := range eS {
			if d := math.Abs(eS[i] - eD[i]); d > 1e-8 {
				t.Errorf("ranks=%d: step %d total energy differs by %g (serial %.12f, dist %.12f)", ranks, i, d, eS[i], eD[i])
			}
		}
		for a := range posS {
			for d := 0; d < 3; d++ {
				if diff := math.Abs(posS[a][d] - posD[a][d]); diff > 1e-8 {
					t.Errorf("ranks=%d: atom %d position[%d] differs by %g", ranks, a, d, diff)
				}
				if diff := math.Abs(velS[a][d] - velD[a][d]); diff > 1e-10 {
					t.Errorf("ranks=%d: atom %d velocity[%d] differs by %g", ranks, a, d, diff)
				}
			}
		}
	}
}

// TestEhrenfestEnergyConservation50Steps is the acceptance pin for the
// integrator: a 50-ion-step hybrid Si8 trajectory (displaced atom, no
// laser) must conserve the total energy - electronic + ion kinetic +
// ion-ion - to 1e-4 Ha, and the released atom must actually move (the
// oscillation the examples/ehrenfest workload demonstrates).
func TestEhrenfestEnergyConservation50Steps(t *testing.T) {
	if testing.Short() {
		t.Skip("50 hybrid ion steps are slow")
	}
	cell, psi0, nb := mdFixture(t)
	const steps, dtIon, k = 50, 2.0, 1
	energies, pos, _, _ := ehrenfestSerial(t, cell, psi0, nb, true, steps, dtIon, k)
	var drift float64
	for _, e := range energies {
		if d := math.Abs(e - energies[0]); d > drift {
			drift = d
		}
	}
	if drift > 1e-4 {
		t.Errorf("total-energy drift %g Ha over %d ion steps (tol 1e-4)", drift, steps)
	}
	// The displaced atom was released with a restoring force along -x: it
	// must have moved from its starting point.
	start := mdCell.Positions()[0]
	if moved := math.Abs(pos[0][0] - start[0]); moved < 1e-4 {
		t.Errorf("displaced atom did not move (|dx| = %g)", moved)
	}
}

// TestEhrenfestCheckpointResume: interrupting a distributed hybrid MTS
// trajectory mid-run, writing a v3 checkpoint (orbitals + MTS cadence +
// ion positions/velocities/force cache) through the real file format, and
// resuming must reproduce the uninterrupted trajectory to 1e-10.
func TestEhrenfestCheckpointResume(t *testing.T) {
	cell, psi0, nb := mdFixture(t)
	const ranks, dtIon, k, mts = 2, 2.0, 2, 2

	type result struct {
		energies []float64
		pos      [][3]float64
		psi      []complex128
	}
	runSpan := func(cellR *lattice.Cell, start []complex128, t0 float64, loaded *checkpoint.State, steps int, save bool) (result, *checkpoint.State) {
		var res result
		res.energies = make([]float64, steps)
		res.psi = make([]complex128, len(start))
		var saved *checkpoint.State
		mpi.Run(ranks, func(c *mpi.Comm) {
			cl := cellR.Clone()
			g := grid.MustNew(cl, 3)
			d, err := dist.NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			h := hamiltonian.New(g, siPots(), hamiltonian.Config{IonDynamics: true})
			opt := dist.ExchangeOptions{ACE: true, MTSPeriod: mts}
			s := dist.NewPTCNSolver(d, h, xc.HSE06(), true, nil, core.DefaultPTCN(), opt)
			s.Time = t0
			lo, hi := d.BandRange(c.Rank())
			de := &ion.DistElectrons{S: s, Local: wavefunc.Clone(start[lo*g.NG : hi*g.NG]), Pots: siPots()}
			if loaded != nil {
				var ref []complex128
				if loaded.PhiRef != nil {
					ref = loaded.PhiRef[lo*g.NG : hi*g.NG]
				}
				if err := s.ResumeMTS(int(loaded.MTSPhase), ref); err != nil {
					t.Error(err)
					return
				}
			}
			v, err := ion.NewVerlet(cl, de, dtIon, k)
			if err != nil {
				t.Error(err)
				return
			}
			if loaded != nil {
				if err := v.Resume(loaded.IonPos, loaded.IonVel, loaded.IonForce, int(loaded.IonSteps)); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < steps; i++ {
				if err := v.Step(); err != nil {
					t.Errorf("rank %d ion step %d: %v", c.Rank(), i, err)
					return
				}
				e, err := v.TotalEnergy()
				if err != nil {
					t.Error(err)
					return
				}
				if c.Rank() == 0 {
					res.energies[i] = e
				}
			}
			full := d.Gather(de.Local)
			var phiRef []complex128
			phase := s.MTSPhase()
			if save && phase != 0 {
				phiRef = d.Gather(s.MTSRef())
			}
			if c.Rank() == 0 {
				copy(res.psi, full)
				res.pos = cl.Positions()
				if save {
					saved = &checkpoint.State{
						Time: s.Time, Step: int64(steps * k), NBands: nb, NG: g.NG,
						Natom: int64(cl.NumAtoms()), Ecut: 3, Hybrid: true, Psi: wavefunc.Clone(full),
						MTSPeriod: mts, MTSPhase: int64(phase), MTSACE: true, PhiRef: wavefunc.Clone(phiRef),
						IonSteps: int64(v.Steps), IonPos: cl.Positions(),
						IonVel: append([][3]float64(nil), v.Vel...), IonForce: append([][3]float64(nil), v.F...),
					}
				}
			}
		})
		return res, saved
	}

	full, _ := runSpan(cell, psi0, 0, nil, 4, false)

	half, saved := runSpan(mdCell.Clone(), psi0, 0, nil, 2, true)
	_ = half
	if saved == nil {
		t.Fatal("no checkpoint captured")
	}
	// Through the real on-disk format.
	path := filepath.Join(t.TempDir(), "ehrenfest.ckp")
	if err := checkpoint.SaveFile(path, saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasIons() {
		t.Fatal("checkpoint lost its ion section")
	}
	if err := loaded.Compatible(nb, loaded.NG, 8, 3, true, mts, true, true); err != nil {
		t.Fatal(err)
	}
	resumed, _ := runSpan(mdCell.Clone(), loaded.Psi, loaded.Time, loaded, 2, false)

	if d := wavefunc.MaxDiff(full.psi, resumed.psi); d > 1e-10 {
		t.Errorf("resumed orbitals deviate from uninterrupted by %g (tol 1e-10)", d)
	}
	for a := range full.pos {
		for d := 0; d < 3; d++ {
			if diff := math.Abs(full.pos[a][d] - resumed.pos[a][d]); diff > 1e-10 {
				t.Errorf("atom %d position[%d] deviates by %g (tol 1e-10)", a, d, diff)
			}
		}
	}
	if d := math.Abs(full.energies[3] - resumed.energies[1]); d > 1e-10 {
		t.Errorf("final total energy deviates by %g (tol 1e-10)", d)
	}
}

// TestPTCNNoLaserEnergyConservation pins the electronic energy
// conservation the Ehrenfest work leans on: with no field and frozen
// ions, a long hybrid PT-CN run from the hybrid ground state must hold
// its total energy - any drift here (orthogonalization loss, exchange
// refresh bugs, SCF truncation bias) would masquerade as ion heating in
// an Ehrenfest trajectory. Serial and 2-rank distributed runs are both
// pinned over 50 steps.
func TestPTCNNoLaserEnergyConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("50 hybrid steps are slow")
	}
	cell, psi0, nb := mdFixture(t)
	g := grid.MustNew(cell, 3)
	const steps, dt = 50, 1.0
	const tol = 1e-5

	// Serial.
	h := hamiltonian.New(g, siPots(), hamiltonian.Config{Hybrid: true, Params: xc.HSE06(), IonDynamics: true})
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2}
	pt := core.NewPTCN(sys, core.DefaultPTCN())
	psi := wavefunc.Clone(psi0)
	e0 := observe.Energy(sys, psi, 0).Total()
	var err error
	var drift float64
	for i := 0; i < steps; i++ {
		if psi, _, err = pt.Step(psi, dt); err != nil {
			t.Fatalf("serial step %d: %v", i, err)
		}
		if d := math.Abs(observe.Energy(sys, psi, pt.Time).Total() - e0); d > drift {
			drift = d
		}
	}
	if drift > tol {
		t.Errorf("serial: energy drift %g Ha over %d no-laser hybrid steps (tol %g)", drift, steps, tol)
	}

	// 2-rank distributed, same system and cadence.
	var distDrift float64
	mpi.Run(2, func(c *mpi.Comm) {
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			t.Error(err)
			return
		}
		hD := hamiltonian.New(g, siPots(), hamiltonian.Config{IonDynamics: true})
		s := dist.NewPTCNSolver(d, hD, xc.HSE06(), true, nil, core.DefaultPTCN(), dist.ExchangeOptions{})
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi0[lo*g.NG : hi*g.NG])
		e0 := s.TotalEnergy(local, 0).Total()
		for i := 0; i < steps; i++ {
			if local, _, err = s.Step(local, dt); err != nil {
				t.Errorf("rank %d step %d: %v", c.Rank(), i, err)
				return
			}
			e := s.TotalEnergy(local, s.Time).Total()
			if dd := math.Abs(e - e0); c.Rank() == 0 && dd > distDrift {
				distDrift = dd
			}
		}
	})
	if distDrift > tol {
		t.Errorf("2 ranks: energy drift %g Ha over %d no-laser hybrid steps (tol %g)", distDrift, steps, tol)
	}
}
