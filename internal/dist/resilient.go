// Resilient propagation: a supervisor around the distributed PT-CN loop
// that turns injected (or real) rank failures into bounded recovery
// instead of lost trajectories. Each attempt runs the world under
// mpi.RunTolerant with a peer-loss deadline; when a rank dies - a typed
// mpi.RankFailure from fault injection, or survivors' ErrPeerLost
// deadlines - the attempt's world is torn down (every goroutine unblocks
// via the deadline), the last good rolling checkpoint is loaded and
// validated, and a fresh world relaunches from it, with exponential
// backoff and a bounded retry budget. The recovered trajectory is
// bit-compatible with an uninterrupted one: checkpoints carry the exact
// Psi plus the mid-cycle MTS reference, the same state the PR 4 resume
// contract pins to 1e-10.
package dist

import (
	"fmt"
	"sync/atomic"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/core"
	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/mpi"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// ResilientConfig describes a fault-tolerant distributed propagation.
type ResilientConfig struct {
	Ranks int
	G     *grid.Grid
	NB    int
	// NewHamiltonian builds a fresh Hamiltonian per attempt: the solver
	// mutates potential state in place, so attempts must not share one.
	NewHamiltonian func() *hamiltonian.Hamiltonian
	Hyb            xc.HybridParams
	Hybrid         bool
	Field          laser.Field
	Opt            core.PTCNOptions
	Ex             ExchangeOptions
	Occ            float64 // 0 means the solver default (2, closed shell)

	Psi0  []complex128 // full band set at Step0 (band-major, NB x NG)
	T0    float64      // simulation time at Step0 (au)
	Step0 int64        // cumulative step counter at Psi0; must sit on an MTS cycle boundary
	Steps int          // steps to advance
	Dt    float64      // time step (au)

	// System identity stamped into checkpoints and validated on recovery.
	Natom int64
	Ecut  float64

	// Ckpt is the rolling checkpoint sequence recovery restarts from;
	// CkptEvery is the cadence in steps (0 disables periodic saves - a
	// failed attempt then replays from its own starting state). The final
	// state is always saved when Ckpt is set.
	Ckpt      *checkpoint.Rolling
	CkptEvery int

	// MaxRestarts bounds the retry budget; Backoff is the first retry's
	// delay, doubling per restart (0 disables the wait). Deadline is the
	// peer-loss detection bound (0 means mpi.DefaultDeadline).
	MaxRestarts int
	Backoff     time.Duration
	Deadline    time.Duration

	// FaultFor/PerturbFor configure the injection per attempt (attempt 0
	// is the first launch). Either may be nil.
	FaultFor   func(attempt int) *mpi.Fault
	PerturbFor func(attempt int) *mpi.Perturb

	// Trace, when set, records one span track per rank across every
	// attempt: Track(id) is idempotent, so a relaunched rank appends to
	// the same timeline and the export shows the crash, the gap, and the
	// recovery replay in sequence.
	Trace *trace.Recorder

	// Logf receives recovery-timeline notices (nil silences them).
	Logf func(format string, args ...any)
}

func (cfg *ResilientConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// ResilientResult is the outcome of a completed resilient propagation.
type ResilientResult struct {
	Psi     []complex128 // full band set at the final step
	Time    float64
	Step    int64
	Energy  float64    // total energy at the final step
	Current [3]float64 // macroscopic current at the final step

	Restarts  int      // world relaunches performed
	LostSteps int64    // steps re-run because they postdated the last checkpoint
	Failures  []string // one line per failed attempt
}

// RunResilient propagates cfg.Steps distributed PT-CN steps to completion
// across rank failures. It returns the final state once an attempt
// finishes cleanly, or an error when the retry budget is exhausted, the
// recovery checkpoint is unusable, or the propagation itself fails
// (application errors such as SCF divergence are rank-symmetric and are
// never retried - a relaunch would fail identically).
func RunResilient(cfg ResilientConfig) (*ResilientResult, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("dist: resilient run needs >= 1 rank")
	}
	if len(cfg.Psi0) != cfg.NB*cfg.G.NG {
		return nil, fmt.Errorf("dist: psi0 length %d != %d bands x %d", len(cfg.Psi0), cfg.NB, cfg.G.NG)
	}
	if cfg.NewHamiltonian == nil {
		return nil, fmt.Errorf("dist: resilient run needs a Hamiltonian factory")
	}
	if cfg.CkptEvery < 0 {
		return nil, fmt.Errorf("dist: negative checkpoint cadence %d", cfg.CkptEvery)
	}
	if cfg.CkptEvery > 0 && cfg.Ckpt == nil {
		return nil, fmt.Errorf("dist: checkpoint cadence %d without a rolling checkpoint base", cfg.CkptEvery)
	}
	m := cfg.Ex.MTSPeriod
	if m > 0 && cfg.Step0%int64(m) != 0 {
		return nil, fmt.Errorf("dist: resilient run must start on an MTS cycle boundary (step %d, period %d)", cfg.Step0, m)
	}
	deadline := cfg.Deadline
	if deadline == 0 {
		deadline = mpi.DefaultDeadline
	}

	// cur is the state the next attempt launches from; it starts at the
	// caller's initial conditions and advances to the recovered
	// checkpoint after each failure.
	cur := &checkpoint.State{
		Time: cfg.T0, Step: cfg.Step0,
		NBands: cfg.NB, NG: cfg.G.NG, Natom: cfg.Natom, Ecut: cfg.Ecut,
		Hybrid: cfg.Hybrid, Psi: wavefunc.Clone(cfg.Psi0),
		MTSPeriod: int64(m), MTSACE: cfg.Ex.ACE && m > 0,
	}
	target := cfg.Step0 + int64(cfg.Steps)
	res := &ResilientResult{}

	for attempt := 0; ; attempt++ {
		var p *mpi.Perturb
		if cfg.PerturbFor != nil {
			p = cfg.PerturbFor(attempt)
		}
		if p == nil {
			p = &mpi.Perturb{}
		}
		if cfg.FaultFor != nil {
			p.Fault = cfg.FaultFor(attempt)
		}
		if p.Deadline == 0 {
			p.Deadline = deadline
		}

		var progress atomic.Int64 // furthest completed step, for lost-step accounting
		progress.Store(cur.Step)
		var final *checkpoint.State
		var appErr, saveErr error
		_, fail := mpi.RunTolerant(cfg.Ranks, p, func(c *mpi.Comm) {
			c.SetTrace(cfg.Trace.Track(c.Rank(), fmt.Sprintf("rank %d", c.Rank())))
			d, err := NewCtx(c, cfg.G, cfg.NB, 2)
			if err != nil {
				if c.Rank() == 0 {
					appErr = err
				}
				return
			}
			s := NewPTCNSolver(d, cfg.NewHamiltonian(), cfg.Hyb, cfg.Hybrid, cfg.Field, cfg.Opt, cfg.Ex)
			if cfg.Occ != 0 {
				s.Occ = cfg.Occ
			}
			s.Time = cur.Time
			ng := cfg.G.NG
			lo, hi := d.BandRange(c.Rank())
			local := wavefunc.Clone(cur.Psi[lo*ng : hi*ng])
			var ref []complex128
			if cur.MTSPhase > 0 && cur.PhiRef != nil {
				ref = cur.PhiRef[lo*ng : hi*ng]
			}
			if err := s.ResumeMTS(int(cur.MTSPhase), ref); err != nil {
				if c.Rank() == 0 {
					appErr = err
				}
				return
			}
			for step := cur.Step; step < target; step++ {
				c.StepReached(step)
				local, _, err = s.Step(local, cfg.Dt)
				if err != nil {
					if c.Rank() == 0 {
						appErr = fmt.Errorf("step %d: %w", step, err)
					}
					return
				}
				done := step + 1
				if c.Rank() == 0 {
					progress.Store(done)
				}
				if cfg.CkptEvery > 0 && done < target && (done-cfg.Step0)%int64(cfg.CkptEvery) == 0 {
					st := cfg.snapshot(d, s, local, done)
					if c.Rank() == 0 {
						if err := cfg.Ckpt.Save(st); err != nil && saveErr == nil {
							saveErr = err
						}
					}
				}
			}
			eb := s.TotalEnergy(local, s.Time)
			j := s.Current(local)
			st := cfg.snapshot(d, s, local, target)
			if c.Rank() == 0 {
				final = st
				res.Energy = eb.Total()
				res.Current = j
			}
		})
		if appErr != nil {
			return nil, appErr
		}
		if saveErr != nil {
			// A failed periodic save does not stop propagation, but the
			// operator must know the recovery point is stale.
			cfg.logf("resilient: checkpoint save failed: %v", saveErr)
		}
		if fail == nil {
			if cfg.Ckpt != nil {
				if err := cfg.Ckpt.Save(final); err != nil {
					return nil, fmt.Errorf("dist: final checkpoint: %w", err)
				}
			}
			res.Psi, res.Time, res.Step = final.Psi, final.Time, final.Step
			return res, nil
		}

		// The attempt went down. Tear-down already happened (RunTolerant
		// only returns once every rank goroutine exited); recover.
		res.Failures = append(res.Failures, fail.Error())
		res.Restarts++
		if res.Restarts > cfg.MaxRestarts {
			return nil, fmt.Errorf("dist: giving up after %d restarts; last failure: %s", res.Restarts-1, fail.Error())
		}
		cfg.logf("resilient: attempt %d failed (%s); restart %d/%d", attempt, fail.Error(), res.Restarts, cfg.MaxRestarts)
		if cfg.Backoff > 0 {
			wait := cfg.Backoff << (res.Restarts - 1)
			if wait > 30*time.Second {
				wait = 30 * time.Second
			}
			time.Sleep(wait)
		}
		reached := progress.Load()
		if cfg.Ckpt != nil {
			st, file, err := cfg.Ckpt.Latest()
			switch {
			case err == nil:
				if cerr := st.Compatible(cfg.NB, cfg.G.NG, cfg.Natom, cfg.Ecut, cfg.Hybrid, m, cfg.Ex.ACE, false); cerr != nil {
					return nil, fmt.Errorf("dist: last good checkpoint %s unusable: %w", file, cerr)
				}
				if st.Step < cur.Step || st.Step > target {
					return nil, fmt.Errorf("dist: last good checkpoint %s at step %d outside segment [%d, %d]", file, st.Step, cur.Step, target)
				}
				cur = st
				cfg.logf("resilient: recovered from %s (step %d)", file, st.Step)
			case cfg.CkptEvery > 0:
				// No checkpoint landed yet: replay the attempt from its
				// own starting state.
				cfg.logf("resilient: no checkpoint yet (%v); replaying from step %d", err, cur.Step)
			default:
				cfg.logf("resilient: periodic checkpoints disabled; replaying from step %d", cur.Step)
			}
		}
		if reached > cur.Step {
			res.LostSteps += reached - cur.Step
		}
	}
}

// snapshot gathers the full restartable state (collective: every rank
// calls it, rank 0 keeps the result): the complete band set at `step`,
// and - mid MTS cycle - the frozen exchange reference the next attempt
// rebuilds the held operator from.
func (cfg *ResilientConfig) snapshot(d *Ctx, s *PTCNSolver, local []complex128, step int64) *checkpoint.State {
	m := cfg.Ex.MTSPeriod
	st := &checkpoint.State{
		Time: s.Time, Step: step,
		NBands: cfg.NB, NG: cfg.G.NG, Natom: cfg.Natom, Ecut: cfg.Ecut,
		Hybrid: cfg.Hybrid, Psi: d.Gather(local),
		MTSPeriod: int64(m), MTSPhase: int64(s.MTSPhase()),
		MTSACE: cfg.Ex.ACE && m > 0,
	}
	if st.MTSPhase > 0 && cfg.Hybrid {
		st.PhiRef = d.Gather(s.MTSRef())
	}
	return st
}
