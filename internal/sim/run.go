// Run: one propagation loop in one world, shared by the CLI and the job
// server. Every run is a goroutine-MPI world of max(Ranks, 1) ranks, each
// advancing its band block with dist.PTCNSolver (a serial run is the
// one-rank world) by PT-CN or, for the Fig. 6 comparator, RK4 - the one
// method-dependent choice is which of the solver's step functions the
// rank's ion.DistElectrons calls. Ehrenfest MD is an ion.Verlet wrapped
// around those electrons.
// The loop owns what every run needs once: cooperative shutdown (the Stop
// channel finishes the step in flight, checkpoints the completed steps, and
// returns), per-step observable emission, the rolling checkpoints (every
// CkptEvery steps and the final state, all into the one sequence
// Options.Ckpt), and the gather of the restartable state a resumed segment
// starts from.
//
// Nothing here retries. propagate launches the world once under mpi.Run;
// application errors (SCF divergence, an RK4 blow-up, a failed save) are
// rank-symmetric and end the run, and a rank panic is re-raised as the bug
// it is. Interruptions are resumed by the drivers from the rolling
// checkpoints, through Options.Resume: ptdft -load, and the job server's
// preemption, drain and restart adoption.
package sim

import (
	"fmt"
	"math"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/ion"
	"ptdft/internal/laser"
	"ptdft/internal/lattice"
	"ptdft/internal/mpi"
	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/trace"
	"ptdft/internal/units"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// tagStop is the AllreduceSum tag (consumes tagStop and tagStop+1) for
// the per-step shutdown vote: far above the dist tag namespace (its fixed
// tags end at 130).
const tagStop = 9000

// Options carries the runtime wiring of one Run: hooks, checkpointing,
// and reusable inputs. All fields are optional.
type Options struct {
	// Stop is closed to request a graceful shutdown (SIGINT on the CLI,
	// preemption or drain on the server): the loop finishes the step in
	// flight, the final checkpoint covers the completed steps, and Run
	// returns with Result.Stopped set.
	Stop chan struct{}
	// AfterStep observes each completed step (rank 0 in distributed
	// runs); a test hook and the preemption trigger.
	AfterStep func(done int)
	// OnSample receives each step's observables as it completes - the
	// streaming feed. Called from the loop of rank 0.
	OnSample func(observe.Sample)
	// Ground supplies a pre-computed ground state (an SCF-cache hit); nil
	// means Run solves it. The orbitals are treated as read-only.
	Ground *scf.Result
	// Resume continues from a loaded checkpoint instead of the ground
	// state, up to the spec's TotalSteps. Run validates compatibility
	// against the spec; a checkpoint that already covers the trajectory
	// is the result as it stands (no ground state, no world).
	Resume *checkpoint.State
	// Ckpt, when set, receives a durable rolling checkpoint every
	// CkptEvery steps (ion steps under MD; 0 for none) plus the final
	// state.
	Ckpt      *checkpoint.Rolling
	CkptEvery int
	// Trace, when set, records per-rank span timelines for the whole
	// segment: the world attaches one track per rank and the solver/comm
	// layers fill it. Result carries the folded
	// aggregates; export the recorder for the full timeline. nil (the
	// default) keeps every recording site on its zero-alloc disabled path.
	Trace *trace.Recorder
	// PulseSteps, when set, must equal Spec.ElectronicSteps, the length
	// the 380nm pulse envelope is shaped from; Run rejects any other value.
	PulseSteps int
	// Logf receives progress notices (system, ground state, cadence,
	// communication volume); nil silences them.
	Logf func(format string, args ...any)
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// stopRequested reports whether a shutdown was requested.
func (o *Options) stopRequested() bool {
	if o.Stop == nil {
		return false
	}
	select {
	case <-o.Stop:
		return true
	default:
		return false
	}
}

// Result is the outcome of one Run segment.
type Result struct {
	Samples []observe.Sample // one per completed step (ion steps under MD)
	Psi     []complex128     // full band set after the last completed step
	Time    float64          // simulation time (au)
	Stopped bool             // a shutdown request ended the segment before the trajectory's end

	Ground        *scf.Result // the ground state used (cached or solved)
	GroundWallSec float64     // SCF wall time (0 on a cache hit)

	EhrenfestDrift float64           // max |E_tot - E_0| over the segment (MD only)
	Final          *checkpoint.State // the assembled restartable state

	// Observability aggregates (zero/nil unless Options.Trace was set;
	// Comm is set on every run that propagates, a one-rank world included):
	// cumulative busy seconds summed over rank timelines, total bytes moved
	// through the communicator (0 on one rank), the per-phase wall
	// breakdown, and the raw comm ledgers for heat maps.
	RankSeconds  float64
	BytesMoved   int64
	PhaseSeconds map[string]float64
	Comm         *mpi.Stats
}

// runner bundles the derived state of one Run that the ranks' loops
// share.
type runner struct {
	spec  *Spec
	opt   *Options
	g     *grid.Grid
	nb    int
	natom int64
	field laser.Field
	dt    float64
	psiGS []complex128 // ground-state reference for excited-electron counts

	res *Result // filled by the root's loop: Samples, Final, EhrenfestDrift
}

// Run executes the spec to completion (or until Stop fires), returning
// the trajectory segment: a world of max(Ranks, 1) ranks stepping by the
// spec's Method, wrapped in the ion integrator under MD, exactly like the
// CLI.
func Run(spec *Spec, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cell, g, nb, err := spec.System()
	if err != nil {
		return nil, err
	}
	opt.logf("system: Si%d (%dx%dx%d cells), Ecut %.1f Ha; grid %v (NG=%d), bands %d",
		cell.NumAtoms(), spec.Cells[0], spec.Cells[1], spec.Cells[2], spec.Ecut, g.N, g.NG, nb)

	left, err := spec.Remaining(opt.Resume)
	if err != nil {
		return nil, err
	}
	if opt.PulseSteps != 0 && opt.PulseSteps != spec.ElectronicSteps() {
		return nil, fmt.Errorf("sim: PulseSteps %d is not the trajectory's %d electronic steps the envelope is shaped from", opt.PulseSteps, spec.ElectronicSteps())
	}
	if st := opt.Resume; st != nil {
		if err := st.Compatible(nb, g.NG, int64(cell.NumAtoms()), spec.Ecut, spec.Hybrid, spec.MTS, spec.MD); err != nil {
			return nil, err
		}
		opt.logf("resumed at t = %.2f as, after %d of %d steps", units.AUToAttoseconds(st.Time), spec.TotalSteps()-left, spec.TotalSteps())
		if left == 0 {
			if err := opt.save(st); err != nil {
				return nil, err
			}
			return &Result{Psi: st.Psi, Time: st.Time, Final: st}, nil
		}
	}

	res := &Result{}
	gs := opt.Ground
	if gs != nil {
		opt.logf("ground state: E = %.8f Ha (cached; %d SCF iterations at build)", gs.Energy.Total(), gs.SCFIterations)
	} else {
		start := time.Now()
		gs, err = GroundState(spec)
		if err != nil {
			return nil, err
		}
		res.GroundWallSec = time.Since(start).Seconds()
		opt.logf("ground state: E = %.8f Ha (%d SCF iterations, density err %.2e)",
			gs.Energy.Total(), gs.SCFIterations, gs.DensityError)
	}
	res.Ground = gs

	field := spec.Field()
	switch {
	case spec.PulseE0 != 0:
		opt.logf("field: 380nm pulse, E0=%.4g Ha/bohr, envelope over %d steps", spec.PulseE0, spec.ElectronicSteps())
	case spec.Kick != 0:
		opt.logf("field: delta kick A=%.4g au along z", spec.Kick)
	}
	r := &runner{
		spec: spec, opt: &opt, g: g, nb: nb, natom: int64(cell.NumAtoms()),
		field: field, dt: units.AttosecondsToAU(spec.DtAs), psiGS: gs.Psi, res: res,
	}
	if err := r.propagate(cell); err != nil {
		return nil, err
	}
	st := res.Final
	res.Psi, res.Time = st.Psi, st.Time
	res.Stopped = spec.Progress(st) < spec.TotalSteps()
	if opt.Trace != nil {
		res.RankSeconds = opt.Trace.RankSeconds()
		res.PhaseSeconds = opt.Trace.PhaseSeconds()
	}
	if res.Comm != nil {
		res.BytesMoved = res.Comm.TotalBytes()
	}
	if spec.MD && len(res.Samples) > 0 {
		opt.logf("ehrenfest: %d ion steps of %g as (K=%d electronic steps each); max total-energy drift %.3e Ha",
			len(res.Samples), spec.IonDtAs, spec.IonSubsteps(), res.EhrenfestDrift)
	}
	if spec.MTS > 0 {
		opt.logf("MTS cadence: exchange refreshed every %d steps (ended at cycle phase %d)", spec.MTS, st.MTSPhase)
	}
	if err := opt.save(st); err != nil {
		return nil, err
	}
	return res, nil
}

// save writes the final state to the rolling sequence, if there is one.
func (o *Options) save(st *checkpoint.State) error {
	if o.Ckpt == nil {
		return nil
	}
	return o.Ckpt.Save(st)
}

// Field builds the spec's external field: the 380nm pulse shaped from the
// trajectory's ElectronicSteps, else the kick, else nil. The envelope is a
// function of absolute time over the whole trajectory, so every segment of
// a resumed run propagates under the identical field.
func (s *Spec) Field() laser.Field {
	switch {
	case s.PulseE0 != 0:
		sigma := units.AttosecondsToAU(s.DtAs) * float64(s.ElectronicSteps()) / 4
		return laser.New380nm(s.PulseE0, 2*sigma, sigma)
	case s.Kick != 0:
		return &laser.Kick{K: s.Kick, Pol: [3]float64{0, 0, 1}}
	}
	return nil
}

// GroundState solves the spec's ground-state SCF (the cache-miss path of
// the job server, and the default path of Run). A hybrid ground state
// applies its exchange through the serial ACE built once per Fock phase,
// whatever operator the spec propagates with: ACE is exact on its
// reference, so the outer loop converges to the exact-exchange fixed point,
// and an exact spec and its ACE twin share one ground state (SCFKey).
func GroundState(spec *Spec) (*scf.Result, error) {
	_, g, nb, err := spec.System()
	if err != nil {
		return nil, err
	}
	h := hamiltonian.New(g, spec.Pots(), hamiltonian.Config{
		Hybrid: spec.Hybrid, UseACE: spec.Hybrid, Params: xc.HSE06(), IonDynamics: spec.MD,
	})
	o := scf.Defaults()
	o.Seed = spec.Seed
	return scf.GroundState(g, h, nb, o)
}

// propagate runs the loop on every rank of a goroutine-MPI world of
// max(Ranks, 1) ranks.
func (r *runner) propagate(cell *lattice.Cell) error {
	spec, opt := r.spec, r.opt
	op := "none (semi-local)"
	switch {
	case spec.ACE:
		op = fmt.Sprintf("ACE held between outer steps (MTS M=%d)", spec.MTS)
	case spec.Hybrid:
		op = "exact exchange"
	}
	ranks := max(spec.Ranks, 1)
	opt.logf("distributed: %d ranks, operator %s", ranks, op)
	// Every error a rank's loop returns is rank-symmetric (the same inputs,
	// a global convergence or blow-up criterion, a voted shutdown), so all
	// ranks leave together and the root's error is the run's error.
	var rootErr error
	stats := mpi.Run(ranks, func(c *mpi.Comm) {
		err := r.loop(c, cell)
		if c.Rank() == 0 {
			rootErr = err
		}
	})
	r.res.Comm = stats
	if rootErr != nil {
		return rootErr
	}
	mb := func(class mpi.OpClass) float64 { return float64(stats.BytesFor(class)) / 1e6 }
	opt.logf("communication volume: Bcast %.1f MB, Alltoallv %.1f MB, Allreduce %.1f MB, AllGatherv %.1f MB",
		mb(mpi.ClassBcast), mb(mpi.ClassAlltoallv), mb(mpi.ClassAllreduce), mb(mpi.ClassAllgatherv))
	return nil
}

// electrons builds this rank's solver over its band block inside the world
// (one rank for a serial run), recording onto the rank's own track through
// the Comm handle (nil recorder -> nil track -> every site stays on its
// disabled path), and returns it with the cell its grid and Hamiltonian
// follow.
func (r *runner) electrons(c *mpi.Comm, cell *lattice.Cell) (*ion.DistElectrons, *lattice.Cell, error) {
	spec := r.spec
	c.SetTrace(r.opt.Trace.Track(c.Rank(), fmt.Sprintf("rank %d", c.Rank())))
	g := r.g
	if spec.MD {
		// Per-rank geometry: a cloned cell and a grid built on it, so the
		// position updates of the replicated ion trajectories never touch
		// shared memory. The forces are allreduced in deterministic rank
		// order, so every replica is bit-identical.
		cell = cell.Clone()
		var err error
		if g, err = grid.New(cell, spec.Ecut); err != nil {
			return nil, nil, err
		}
	}
	d, err := dist.NewCtx(c, g, r.nb, 2)
	if err != nil {
		return nil, nil, err
	}
	h := hamiltonian.New(g, spec.Pots(), hamiltonian.Config{IonDynamics: spec.MD})
	s := dist.NewPTCNSolver(d, h, xc.HSE06(), spec.Hybrid, r.field, core.DefaultPTCN(), dist.ExchangeOptions{
		ACE:       spec.ACE,
		MTSPeriod: spec.MTS,
	})
	psi0, resume := r.psiGS, r.opt.Resume
	if resume != nil {
		psi0, s.Time = resume.Psi, resume.Time
	}
	lo, hi := d.BandRange(c.Rank())
	ng := g.NG
	de := &ion.DistElectrons{S: s, Local: wavefunc.Clone(psi0[lo*ng : hi*ng]), Pots: spec.Pots()}
	if spec.Method == "rk4" {
		de.Step = s.StepRK4
	}
	if resume != nil {
		// Land on the saved step, and so on its cycle phase and RK4's
		// re-orthonormalization cadence; mid-cycle the frozen exchange
		// reference of the last outer step is restored (and the compressed
		// operator reconstructed from it, collectively).
		var ref []complex128
		if resume.PhiRef != nil {
			ref = resume.PhiRef[lo*ng : hi*ng]
		}
		if err := s.ResumeMTS(int(resume.Step), ref); err != nil {
			return nil, nil, err
		}
	}
	return de, cell, nil
}

// loop is the propagation loop, run once per rank on the rank's electrons:
// step, observe, emit, checkpoint, vote, repeat, then gather the final
// state. One pass is one electronic step, or under MD one velocity-Verlet
// ion step of K electronic steps at the midpoint geometry, recording the
// conserved total (electronic + ion kinetic + ion-ion) as the energy. The
// root fills r.res. The segment runs from the resumed checkpoint (or the
// ground state) to the spec's TotalSteps.
func (r *runner) loop(c *mpi.Comm, cell *lattice.Cell) error {
	spec, opt := r.spec, r.opt
	de, cell, err := r.electrons(c, cell)
	if err != nil {
		return err
	}
	s, root, tr := de.S, c.Rank() == 0, c.Trace()
	k, resume := r.substeps(), opt.Resume
	var step0, ionStep0 int64 // the step counters the segment starts from
	if resume != nil {
		step0, ionStep0 = resume.Step, resume.IonSteps
	}
	base := spec.Progress(resume) // loop steps completed before this segment
	n := spec.TotalSteps() - base // loop steps of this segment
	done := 0                     // loop steps completed in this segment
	total := de.ElectronicEnergy
	var e0 float64
	var v *ion.Verlet
	if spec.MD {
		if v, err = ion.NewVerlet(cell, de, units.AttosecondsToAU(spec.IonDtAs), k); err != nil {
			return err
		}
		if resume != nil && resume.HasIons() {
			if err := v.Resume(resume.IonPos, resume.IonVel, resume.IonForce, int(resume.IonSteps)); err != nil {
				return err
			}
		}
		// The drift baseline is the conserved total BEFORE any ion step: the
		// first step is the largest for a released atom and must not hide its
		// own error. (This also fills the initial force cache.)
		if e0, err = v.TotalEnergy(); err != nil {
			return err
		}
		total = v.TotalEnergy
	}
	// state assembles the restartable state after the steps completed so
	// far. The step counters are cumulative provenance: a resumed segment
	// saves resume.Step plus its own steps, so a trajectory split across
	// segments reports the true global step on every file. The MTS phase is
	// rank-symmetric, so gathering the frozen reference only mid-cycle is a
	// collective-safe branch; Gather returns a fresh array on every rank.
	state := func() *checkpoint.State {
		psi, phase := s.D.Gather(de.Local), s.MTSPhase()
		var ref []complex128
		if phase != 0 {
			ref = s.D.Gather(s.MTSRef())
		}
		st := &checkpoint.State{
			Time: s.Time, Step: step0 + int64(done*k), NBands: r.nb, NG: r.g.NG,
			Natom: r.natom, Ecut: spec.Ecut, Hybrid: spec.Hybrid, Psi: psi,
			MTSPeriod: int64(spec.MTS), MTSPhase: int64(phase), PhiRef: ref,
		}
		if v != nil {
			st.IonSteps = ionStep0 + int64(done)
			st.IonPos = v.Cell.Positions()
			st.IonVel = append([][3]float64(nil), v.Vel...)
			st.IonForce = append([][3]float64(nil), v.F...)
		}
		return st
	}

	var saveErr error
	for done < n {
		// The wall clock covers the step only, not the observables after it.
		start := time.Now()
		de.SCF = 0
		if v != nil {
			ionRef := tr.Begin("ion_step", "step")
			err = v.Step()
			tr.EndN(ionRef, int64(done))
		} else {
			err = de.StepElectrons(r.dt)
		}
		if err != nil {
			// A convergence failure or an RK4 blow-up is decided on the
			// global density, so every rank returns here together.
			return fmt.Errorf("step %d: %w", done, err)
		}
		wall := time.Since(start).Seconds()
		obsRef := tr.Begin("observe", "observe")
		energy, err := total()
		if err != nil {
			tr.End(obsRef)
			return err
		}
		jz, nexc := s.Current(de.Local)[2], s.ExcitedElectrons(r.psiGS, de.Local)
		tr.End(obsRef)
		done++
		if root {
			smp := observe.Sample{
				Step:     base + done,
				TimeFs:   s.Time * units.FemtosecondPerAU,
				Energy:   energy,
				CurrentZ: jz,
				Excited:  nexc,
				SCFIters: de.SCF,
				WallSec:  wall,
			}
			r.res.Samples = append(r.res.Samples, smp)
			if v != nil {
				r.res.EhrenfestDrift = math.Max(r.res.EhrenfestDrift, math.Abs(energy-e0))
			}
			if opt.OnSample != nil {
				opt.OnSample(smp)
			}
			if opt.AfterStep != nil {
				opt.AfterStep(done)
			}
		}
		// Periodic durable checkpoint: the cadence test is on the shared
		// step counter, so every rank enters the gathers together. A failed
		// save must not end the root's loop alone (its peers would fail on
		// the lost rank); the root records it and raises it in the vote below.
		if opt.Ckpt != nil && opt.CkptEvery > 0 && done%opt.CkptEvery == 0 && done < n {
			ckRef := tr.Begin("checkpoint", "io")
			st := state()
			if root {
				if err := opt.Ckpt.Save(st); err != nil {
					saveErr = fmt.Errorf("periodic checkpoint after step %d: %w", done, err)
				}
			}
			tr.End(ckRef)
		}
		// Shutdown vote: only the root sees the stop channel and the save
		// error; the vote makes the break rank-symmetric, so no collective
		// is left half-entered.
		vote := []float64{0}
		if root && (saveErr != nil || opt.stopRequested()) {
			vote[0] = 1
		}
		if mpi.AllreduceSum(c, tagStop, vote); vote[0] != 0 {
			break
		}
	}
	st := state()
	if root {
		r.res.Final = st
	}
	return saveErr
}

// substeps is the electronic steps of one loop step: K under MD, else 1.
func (r *runner) substeps() int {
	if r.spec.MD {
		return r.spec.IonSubsteps()
	}
	return 1
}
