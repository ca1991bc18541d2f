// Job model: the lifecycle state machine of one queued simulation and its
// JSON views. A job moves
//
//	queued -> running -> done | failed
//	                  -> preempted -> queued        (preempt + automatic resume)
//	                  -> preempted                  (drain: resumable after restart)
//	queued | running  -> canceled
//
// Every transition is persisted (when the server has a directory), so a
// killed server re-adopts its resumable jobs on the next start.
package server

import (
	"sync"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/observe"
	"ptdft/internal/sim"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePreempted State = "preempted"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final: the feed is closed and the
// job will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Metrics are the per-job accounting the API reports: where the time
// went, whether the ground state came from the SCF cache, and how often
// the job was preempted and resumed.
type Metrics struct {
	// SCFCacheHit is true when the ground state was reused (from the
	// cache or another job's in-flight solve) instead of solved.
	SCFCacheHit bool `json:"scf_cache_hit"`
	// SCFWallSec is the time the job spent obtaining its ground state
	// (near zero on a cache hit - the measured skip).
	SCFWallSec float64 `json:"scf_wall_seconds"`
	// StepsDone is the cumulative completed step count (ion steps under
	// MD) across all attempts.
	StepsDone int `json:"steps_done"`
	// Preemptions counts preempt/drain interruptions; Resumes counts
	// checkpoint-resumed attempts (including restart adoptions).
	Preemptions int `json:"preemptions"`
	Resumes     int `json:"resumes"`
	// Flight-recorder aggregates, accumulated across attempts: cumulative
	// busy seconds summed over rank timelines, total bytes through the
	// job's communicator (0 for serial jobs), and the per-phase wall
	// breakdown (span name -> seconds) behind /jobs/{id}/profile.
	RankSeconds  float64            `json:"rank_seconds"`
	BytesMoved   int64              `json:"bytes_moved"`
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// Job is one submitted simulation. The server's mutex guards every field
// except Feed (internally synchronized) and stop (closed at most once,
// under the server's mutex, when intent is set).
type Job struct {
	ID          string
	Spec        sim.Spec
	State       State
	Err         string
	SubmittedAt time.Time
	StartedAt   time.Time // first attempt
	FinishedAt  time.Time // terminal transition
	Metrics     Metrics

	// Feed streams one Sample per completed step across all attempts; it
	// closes exactly when the job turns terminal.
	Feed *observe.Feed

	// stop requests a graceful interruption of the running attempt;
	// intent records why ("preempt", "cancel", "drain"; "" until stop is
	// closed) so the worker knows which transition to take when the driver
	// returns.
	stop   chan struct{}
	intent string

	// resume is the checkpoint the next attempt continues from; roll is
	// the job's durable rolling checkpoint sequence (nil without a
	// server directory).
	resume *checkpoint.State
	roll   *checkpoint.Rolling

	// persistMu serializes record writes for this job: a lifecycle
	// transition and the streaming-cadence persist may race, and each
	// write must install a complete snapshot.
	persistMu sync.Mutex
}

// View is the JSON representation of a job, in API responses and as the
// on-disk record.
type View struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Spec        sim.Spec  `json:"spec"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Metrics     Metrics   `json:"metrics"`
	// Samples is the trajectory so far (complete when State is "done");
	// omitted from list responses.
	Samples []observe.Sample `json:"samples,omitempty"`
}

// view snapshots the job for an API response or a record write. Callers
// hold the server's mutex; the feed snapshot is internally synchronized.
func (j *Job) view(withSamples bool) View {
	v := View{
		ID: j.ID, State: j.State, Spec: j.Spec, Error: j.Err,
		SubmittedAt: j.SubmittedAt, StartedAt: j.StartedAt, FinishedAt: j.FinishedAt,
		Metrics: j.Metrics,
	}
	// The phase map keeps accumulating across attempts; the snapshot must
	// not alias it (it is JSON-encoded after the server's mutex is
	// released).
	if j.Metrics.PhaseSeconds != nil {
		v.Metrics.PhaseSeconds = make(map[string]float64, len(j.Metrics.PhaseSeconds))
		for name, sec := range j.Metrics.PhaseSeconds {
			v.Metrics.PhaseSeconds[name] = sec
		}
	}
	if withSamples {
		v.Samples = j.Feed.Snapshot()
	}
	return v
}
