// Package sim is the reusable run layer shared by cmd/ptdft and the job
// server (internal/server, cmd/ptdftd): a JSON-serializable simulation
// Spec with the full flag-validation rules, the ground-state solve, and
// one propagation loop in one engine - dist.PTCNSolver's band block on each
// rank of a goroutine-MPI world (a serial run is a one-rank world), stepped
// by PT-CN or by the RK4 comparator and optionally wrapped in the Ehrenfest
// ion integrator - with hooks for streaming observables, cooperative
// preemption, checkpoint-backed resume, and a pre-computed (cached) ground
// state. cmd/ptdft's CLI is a thin flag front-end over this package; the
// server multiplexes many Specs over a worker pool.
//
// Retries live at two levels and nowhere else. Run retries lost ranks: a
// world that goes down with an *mpi.Failure is relaunched from
// the newest rolling checkpoint (or replayed from its own start), up to a
// constant budget, and the caller sees one uninterrupted sample feed plus
// Result.Restarts/LostSteps/Failures. The job server retries whole
// segments: preemption, drain and daemon restarts resume a job through
// Options.Resume. Application errors - an invalid spec, SCF divergence, a
// checkpoint that cannot be written - are never retried by either.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ptdft/internal/checkpoint"
	"ptdft/internal/dist"
	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/pseudo"
	"ptdft/internal/scf"
)

// Spec fully describes one simulation: the physical system, the
// functional and exchange cadence, the integrator, and the parallel
// layout. It is JSON-serializable (the job server's POST /jobs body) and
// carries the same validation rules the ptdft CLI enforces, so a spec
// that validates here runs on any rank count.
type Spec struct {
	Cells      [3]int  `json:"cells"`                 // supercell repetitions (8 Si atoms per cell)
	Ecut       float64 `json:"ecut"`                  // kinetic energy cutoff (Ha)
	Hybrid     bool    `json:"hybrid,omitempty"`      // HSE-like screened-exchange functional
	ACE        bool    `json:"ace,omitempty"`         // apply exchange through the ACE compression, held for mts steps
	MTS        int     `json:"mts,omitempty"`         // ACE refresh period M >= 1 (0 without ace)
	Method     string  `json:"method,omitempty"`      // "ptcn" (default) or "rk4"
	DtAs       float64 `json:"dt_as,omitempty"`       // electronic time step in attoseconds (default 24)
	Steps      int     `json:"steps"`                 // trajectory length in electronic steps (ignored under MD); a resume continues to it
	Kick       float64 `json:"kick,omitempty"`        // delta-kick vector potential (au)
	PulseE0    float64 `json:"pulse_e0,omitempty"`    // 380nm pulse peak field (Ha/bohr); overrides Kick
	Ranks      int     `json:"ranks,omitempty"`       // goroutine-MPI ranks (0/1 = serial)
	Seed       int64   `json:"seed,omitempty"`        // ground-state starting-guess seed
	Exchange   string  `json:"exchange,omitempty"`    // legacy: "overlap", the one exchange schedule, or empty
	SinglePrec bool    `json:"single_prec,omitempty"` // removed: Validate rejects true; kept while bench/ reads it
	MD         bool    `json:"md,omitempty"`          // Ehrenfest ion dynamics
	IonSteps   int     `json:"ion_steps,omitempty"`   // trajectory length in ion steps under MD; a resume continues to it
	IonDtAs    float64 `json:"ion_dt_as,omitempty"`   // ion time step (attoseconds); integer multiple of DtAs
	Displace   string  `json:"displace,omitempty"`    // pre-SCF displacement "i:dx,dy,dz" (Bohr)
}

// Normalize fills defaulted fields in place (the CLI's flag defaults),
// so a sparse JSON spec and a full flag set describe the same run.
func (s *Spec) Normalize() {
	if s.Method == "" {
		s.Method = "ptcn"
	}
	if s.DtAs == 0 {
		s.DtAs = 24
	}
	if s.MD && s.IonDtAs == 0 {
		s.IonDtAs = 96
	}
}

// maxCells caps nx*ny*nz at the paper's largest system, Si1536 = 4x6x8
// cells of 8 atoms, so a spec cannot make Validate allocate a larger cell.
const maxCells = 192

// Validate checks the full rule set the ptdft CLI enforces (no silent
// flag drops: every request must reach a code path that honors it). It
// normalizes first, so callers can hand it a sparse spec directly.
func (s *Spec) Validate() error {
	s.Normalize()
	// NaN and ±Inf pass some checks below and fail only after a ground state.
	for i, v := range [...]float64{s.Ecut, s.DtAs, s.Kick, s.PulseE0, s.IonDtAs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: %s wants a finite number, got %g", [...]string{"ecut", "dt_as", "kick", "pulse_e0", "ion_dt_as"}[i], v)
		}
	}
	n := 1 // stays <= maxCells, so the product cannot overflow
	for _, v := range s.Cells {
		if v < 1 {
			return fmt.Errorf("sim: cells want nx,ny,nz >= 1, got %v", s.Cells)
		}
		if v > maxCells/n {
			return fmt.Errorf("sim: cells %v exceed %d cells, the paper's largest system (Si1536, 4x6x8)", s.Cells, maxCells)
		}
		n *= v
	}
	if s.Ecut <= 0 {
		return fmt.Errorf("sim: ecut wants a positive cutoff (Ha), got %g", s.Ecut)
	}
	if s.Method != "ptcn" && s.Method != "rk4" {
		return fmt.Errorf("sim: unknown method %q", s.Method)
	}
	if s.Steps < 0 {
		return fmt.Errorf("sim: negative step count %d", s.Steps)
	}
	if !(s.DtAs > 0) {
		return fmt.Errorf("sim: dt_as wants a positive time step (as), got %g", s.DtAs)
	}
	if s.ACE && !s.Hybrid {
		return fmt.Errorf("sim: ace selects the exchange operator of the hybrid functional; set hybrid")
	}
	switch {
	case s.MTS < 0:
		return fmt.Errorf("sim: mts wants a refresh period >= 1 (or 0 to disable), got %d", s.MTS)
	case s.MTS > 0 && !s.Hybrid:
		return fmt.Errorf("sim: mts freezes the hybrid exchange between outer steps; it needs hybrid")
	case s.MTS > 0 && s.Method != "ptcn":
		return fmt.Errorf("sim: mts is a PT-CN refresh cadence; method %s does not support it", s.Method)
	}
	// The hybrid space is exact exchange at every iteration or ACE held for
	// M >= 1 steps; each other cadence is dominated by one of the two
	// (EXPERIMENTS.md "One hybrid configuration").
	switch {
	case s.ACE && s.MTS == 0:
		return &RemovedError{Config: "ace without mts (Xi rebuilt at every refresh)", Use: "ace with mts 1 (Xi built once per step), or exact exchange (no ace)"}
	case s.MTS > 0 && !s.ACE:
		return &RemovedError{Config: "mts without ace (exact exchange of a frozen reference)", Use: "ace with the same mts"}
	}
	if s.MD {
		if s.Method != "ptcn" {
			return fmt.Errorf("sim: md couples the ions to the PT-CN propagator; method %s does not support it", s.Method)
		}
		if s.IonSteps < 1 {
			return fmt.Errorf("sim: md wants ion_steps >= 1, got %d", s.IonSteps)
		}
		if !(s.IonDtAs > 0) {
			return fmt.Errorf("sim: md wants a positive ion time step, got ion_dt %g", s.IonDtAs)
		}
		k := s.IonDtAs / s.DtAs
		if k < 0.5 || math.Abs(k-math.Round(k)) > 1e-9*k {
			return fmt.Errorf("sim: ion_dt %g as is not an integer multiple of dt %g as (each ion step spans K electronic steps)", s.IonDtAs, s.DtAs)
		}
	}
	if s.Ranks < 0 {
		return fmt.Errorf("sim: negative rank count %d", s.Ranks)
	}
	if s.SinglePrec {
		return &RemovedError{Config: "single_prec (orbitals rounded to complex64 on the wire)", Use: "no single_prec (the double-precision wire; perf.Model models the paper's single-precision MPI)"}
	}
	if err := s.checkExchange(); err != nil {
		return err
	}
	// The displacement (its syntax, atom index and bounds) and band/rank
	// divisibility need the cell; it is cheap (no grid, no FFT plans), so a
	// spec that validates here cannot fail those checks after an expensive
	// ground state.
	cell, err := s.Cell()
	if err != nil {
		return err
	}
	if s.Ranks > 1 && cell.NumBands()%s.Ranks != 0 {
		return fmt.Errorf("sim: %d bands not divisible by %d ranks", cell.NumBands(), s.Ranks)
	}
	return nil
}

// ParseDisplace parses a displacement spec "i:dx,dy,dz" (Bohr).
func ParseDisplace(s string) (int, [3]float64, error) {
	var vec [3]float64
	head, tail, ok := strings.Cut(s, ":")
	if !ok {
		return 0, vec, fmt.Errorf("sim: displace wants i:dx,dy,dz, got %q", s)
	}
	atom, err := strconv.Atoi(strings.TrimSpace(head))
	if err != nil || atom < 0 {
		return 0, vec, fmt.Errorf("sim: displace: bad atom index %q", head)
	}
	parts := strings.Split(tail, ",")
	if len(parts) != 3 {
		return 0, vec, fmt.Errorf("sim: displace wants three components, got %q", tail)
	}
	for i, p := range parts {
		if vec[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil || math.IsNaN(vec[i]) || math.IsInf(vec[i], 0) {
			return 0, vec, fmt.Errorf("sim: displace: bad component %q (want a finite number)", p)
		}
	}
	return atom, vec, nil
}

// Cell builds the (possibly displaced) supercell of the spec.
func (s *Spec) Cell() (*lattice.Cell, error) {
	cell, err := lattice.SiliconSupercell(s.Cells[0], s.Cells[1], s.Cells[2])
	if err != nil {
		return nil, err
	}
	if s.Displace != "" {
		atom, vec, err := ParseDisplace(s.Displace)
		if err != nil {
			return nil, err
		}
		if err := cell.DisplaceAtom(atom, vec); err != nil {
			return nil, err
		}
	}
	return cell, nil
}

// System builds the cell, wavefunction grid and band count of the spec.
func (s *Spec) System() (*lattice.Cell, *grid.Grid, int, error) {
	cell, err := s.Cell()
	if err != nil {
		return nil, nil, 0, err
	}
	g, err := grid.New(cell, s.Ecut)
	if err != nil {
		return nil, nil, 0, err
	}
	return cell, g, cell.NumBands(), nil
}

// RemovedError rejects a spec that asks for a configuration this version
// deleted, naming the configuration that replaces it.
type RemovedError struct {
	Config string // what the spec asked for
	Use    string // what to ask for instead
}

func (e *RemovedError) Error() string {
	return fmt.Sprintf("sim: %s was removed; use %s", e.Config, e.Use)
}

// checkExchange accepts the legacy exchange field only as the one schedule,
// so a stored record that names it still loads.
func (s *Spec) checkExchange() error {
	switch s.Exchange {
	case "", "overlap":
		return nil
	case "bcast":
		return &RemovedError{Config: `exchange "bcast"`, Use: `exchange "overlap" or no exchange field (the same bits)`}
	}
	return fmt.Errorf("sim: unknown exchange strategy %q (the one schedule is overlap)", s.Exchange)
}

// ExchangeStrategy returns the exchange schedule, rejecting what Validate
// rejects.
func (s *Spec) ExchangeStrategy() (dist.ExchangeStrategy, error) {
	return dist.ExchangeStrategy{}, s.checkExchange()
}

// Functional names the exchange-correlation treatment of the ground-state
// solve for cache keying: everything that changes the converged orbitals
// beyond (cell, grid, bands) must be encoded here. The propagation's
// exchange operator is not: every hybrid ground state runs through ACE
// (GroundState), so exact and ACE specs solve the same one.
func (s *Spec) Functional() string {
	name := "lda"
	if s.Hybrid {
		name = "hse06"
	}
	if s.MD {
		// Ion dynamics switches the Hamiltonian to the gradient-capable
		// (band-limited, full-grid) nonlocal projectors, which perturbs the
		// converged ground state at round-off level.
		name += "+md"
	}
	return name
}

// SCFKey returns the content hash identifying this spec's ground-state
// problem for the SCF cache: two specs with equal keys converge to the
// bit-identical ground state.
func (s *Spec) SCFKey() (string, error) {
	cell, err := s.Cell()
	if err != nil {
		return "", err
	}
	return scf.Fingerprint(cell, s.Ecut, s.Functional(), cell.NumBands(), s.Seed), nil
}

// IonSubsteps returns K, the electronic PT-CN steps per ion step.
func (s *Spec) IonSubsteps() int { return int(math.Round(s.IonDtAs / s.DtAs)) }

// TotalSteps is the trajectory length in loop steps: ion steps under
// MD, electronic steps otherwise. It is the whole trajectory for every
// front end: a run resumed from a checkpoint continues up to it.
func (s *Spec) TotalSteps() int {
	if s.MD {
		return s.IonSteps
	}
	return s.Steps
}

// ElectronicSteps is the trajectory length in electronic steps: Steps, or
// IonSteps x K under MD. The pulse envelope is shaped from it.
func (s *Spec) ElectronicSteps() int {
	if s.MD {
		return s.IonSteps * s.IonSubsteps()
	}
	return s.Steps
}

// Progress returns the loop steps (ion steps under MD) of the spec's
// trajectory that checkpoint st has completed; 0 for nil, a fresh run.
func (s *Spec) Progress(st *checkpoint.State) int {
	switch {
	case st == nil:
		return 0
	case s.MD:
		return int(st.IonSteps)
	}
	return int(st.Step)
}

// Remaining returns the loop steps a run of the spec has left after
// resuming from st (nil: a fresh run, which has them all). A checkpoint
// past the trajectory's end is an error naming both step counts.
func (s *Spec) Remaining(st *checkpoint.State) (int, error) {
	done, unit := s.Progress(st), "steps"
	if s.MD {
		unit = "ion steps"
	}
	if done > s.TotalSteps() {
		return 0, fmt.Errorf("sim: the checkpoint is at %d %s, past the trajectory's %d %s", done, unit, s.TotalSteps(), unit)
	}
	return s.TotalSteps() - done, nil
}

// Pots returns the pseudopotential table for the spec's species set
// (silicon supercells only today).
func (s *Spec) Pots() map[int]*pseudo.Potential {
	return map[int]*pseudo.Potential{0: pseudo.SiliconAH()}
}
