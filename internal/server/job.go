// Job model: the lifecycle state machine of one queued simulation and its
// JSON record. A job moves
//
//	queued -> running -> done | failed
//	                  -> queued       (preempt or drain: checkpoint, requeue)
//	queued | running  -> canceled
//
// A drained job is a queued job that the next server on the same
// directory adopts. Every transition is persisted (when the server has a
// directory), so a killed server re-adopts its resumable jobs on the next
// start.
package server

import (
	"maps"
	"sync"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/observe"
	"ptdft/internal/sim"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
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

// Record is a job's persistent fields: the on-disk record and the body
// of every API view.
type Record struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Spec        sim.Spec  `json:"spec"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`  // first attempt
	FinishedAt  time.Time `json:"finished_at,omitzero"` // terminal transition
	Metrics     Metrics   `json:"metrics"`
}

// Job is one submitted simulation. The server's mutex guards every field
// except Feed (internally synchronized) and stop (closed at most once,
// under the server's mutex, when intent is set).
type Job struct {
	Record

	// Feed streams one Sample per completed step across all attempts; it
	// closes exactly when the job turns terminal.
	Feed *observe.Feed

	// stop requests a graceful interruption of the running attempt;
	// intent records what follows it ("requeue" for preempt and drain,
	// "cancel"; "" until stop is closed) so the worker knows which
	// transition to take when the driver returns.
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
	Record
	// Samples is the trajectory so far (complete when State is "done");
	// omitted from list responses.
	Samples []observe.Sample `json:"samples,omitempty"`
}

// view snapshots the job for an API response or a record write. Callers
// hold the server's mutex; the feed snapshot is internally synchronized.
func (j *Job) view(withSamples bool) View {
	v := View{Record: j.Record}
	// The phase map keeps accumulating across attempts; the snapshot must
	// not alias it (it is JSON-encoded after the server's mutex is
	// released).
	v.Metrics.PhaseSeconds = maps.Clone(j.Metrics.PhaseSeconds)
	if withSamples {
		v.Samples = j.Feed.Snapshot()
	}
	return v
}

// finish moves the job to a terminal state: it stamps FinishedAt and
// closes the feed. Done and canceled jobs also delete their checkpoints,
// which were only ever crash insurance; a failed job keeps them as the
// reproducer. Callers hold the server's mutex and persist afterwards.
func (j *Job) finish(st State) {
	j.State = st
	j.FinishedAt = time.Now().UTC()
	j.Feed.Close()
	if st != StateFailed && j.roll != nil {
		j.roll.Clean()
	}
}
