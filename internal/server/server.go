// Package server is the long-running job daemon behind cmd/ptdftd: an
// HTTP/JSON API over a bounded worker pool that multiplexes queued
// simulation jobs (electron-only and Ehrenfest MD, serial and
// distributed) through internal/sim. A ground-state SCF cache keyed by a
// content hash of the physical problem deduplicates the expensive solve
// across jobs; preemption and graceful shutdown ride the library's
// rolling-checkpoint + resume machinery, so an interrupted trajectory
// continues exactly where it stopped.
package server

import (
	"fmt"
	"sync"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/trace"
)

// Config describes one server instance.
type Config struct {
	// Workers bounds the simulations in flight; <= 0 means 2. Each job
	// may still use internal parallelism (goroutine-MPI ranks).
	Workers int
	// Dir, when set, holds the durable state: one <id>.json record per
	// job plus a rolling checkpoint sequence <id>.ckp* per attempt. A
	// server restarted on the same directory re-adopts every resumable
	// job. Empty disables persistence (jobs die with the process).
	Dir string
	// CkptEvery adds a periodic durable checkpoint every N steps while a
	// job runs (crash insurance beyond the preempt/drain saves); 0 means
	// interruption-time checkpoints only.
	CkptEvery int
	// Logf receives server progress notices; nil silences them.
	Logf func(format string, args ...any)
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return 2
	}
	return c.Workers
}

// runFunc executes one simulation segment (sim.Run in production; pool
// unit tests substitute a lightweight fake).
type runFunc func(spec *sim.Spec, opt sim.Options) (*sim.Result, error)

// solveFunc builds one ground state (sim.GroundState in production).
type solveFunc func(spec *sim.Spec) (*scf.Result, error)

// Server is the job daemon: a FIFO queue, a bounded worker pool, the SCF
// cache, and the persistence layer.
type Server struct {
	cfg   Config
	run   runFunc
	solve solveFunc
	cache *scf.Cache

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	queue    []string // FIFO of queued job IDs
	draining bool
	nextID   int
	wg       sync.WaitGroup

	// Cumulative observability counters behind GET /metrics (guarded by
	// mu): SCF cache outcomes as this server's jobs saw them, and the
	// rank-seconds / comm bytes folded from every attempt's flight
	// recorder.
	scfHits, scfMisses int64
	rankSecTotal       float64
	bytesTotal         int64
}

// New builds a server, re-adopts any resumable jobs from cfg.Dir, and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg, sim.Run, sim.GroundState)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newServer builds a server without starting workers, with injectable run
// and solve functions - the white-box seam the pool unit tests drive.
func newServer(cfg Config, run runFunc, solve solveFunc) (*Server, error) {
	s := &Server{
		cfg:   cfg,
		run:   run,
		solve: solve,
		cache: scf.NewCache(),
		jobs:  make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.adopt(); err != nil {
		return nil, err
	}
	return s, nil
}

// start launches the worker pool.
func (s *Server) start() {
	for i := 0; i < s.cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates and enqueues a job, returning its queued view.
func (s *Server) Submit(spec sim.Spec) (View, error) {
	if err := spec.Validate(); err != nil {
		return View{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return View{}, errDraining
	}
	s.nextID++
	j := &Job{
		ID:          fmt.Sprintf("j%06d", s.nextID),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
		Feed:        observe.NewFeed(),
	}
	j.roll = s.rollFor(j.ID)
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j.ID)
	s.cond.Signal()
	v := j.view(false)
	s.mu.Unlock()
	s.persist(j)
	s.logf("job %s queued: %d steps, ranks=%d, md=%v", j.ID, spec.TotalSteps(), spec.Ranks, spec.MD)
	return v, nil
}

// errDraining rejects submissions during shutdown.
var errDraining = fmt.Errorf("server: draining, not accepting jobs")

// rollFor returns the job's rolling checkpoint sequence (nil without a
// server directory).
func (s *Server) rollFor(id string) *checkpoint.Rolling {
	if s.cfg.Dir == "" {
		return nil
	}
	return &checkpoint.Rolling{Base: s.ckptPath(id)}
}

// Get returns the job's view, with its trajectory samples.
func (s *Server) Get(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(true), true
}

// feed returns the job's sample feed for streaming.
func (s *Server) feed(id string) (*observe.Feed, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.Feed, true
}

// List returns every job's view (no samples), oldest first.
func (s *Server) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]View, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view(false))
	}
	// Sequential IDs make lexical order submission order.
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && views[k].ID < views[k-1].ID; k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
	return views
}

// Preempt interrupts a running job after its step in flight; the
// checkpointed job re-enters the queue and resumes automatically. Only
// running jobs can be preempted.
func (s *Server) Preempt(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return errNotFound
	}
	if j.State != StateRunning || j.stopSent {
		return fmt.Errorf("%w: job %s is %s", errConflict, id, j.State)
	}
	j.intent = "preempt"
	j.stopSent = true
	close(j.stop)
	return nil
}

// Cancel stops a queued or running job for good.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return errNotFound
	}
	switch {
	case j.State == StateQueued:
		j.State = StateCanceled
		j.FinishedAt = time.Now().UTC()
		j.Feed.Close()
		// The queue entry is dropped lazily: workers skip non-queued jobs.
		s.mu.Unlock()
		s.persist(j)
		s.logf("job %s canceled while queued", id)
		return nil
	case j.State == StateRunning && !j.stopSent:
		j.intent = "cancel"
		j.stopSent = true
		close(j.stop)
		s.mu.Unlock()
		return nil
	case j.State == StatePreempted:
		// Between attempts (drain) or about to requeue: mark canceled so
		// no worker picks it up again.
		j.State = StateCanceled
		j.FinishedAt = time.Now().UTC()
		j.Feed.Close()
		s.mu.Unlock()
		s.persist(j)
		return nil
	default:
		st := j.State
		s.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", errConflict, id, st)
	}
}

var (
	errNotFound = fmt.Errorf("server: no such job")
	errConflict = fmt.Errorf("server: conflicting state")
)

// Drain starts a graceful shutdown: no new submissions, running jobs are
// checkpointed after their step in flight and left resumable, queued jobs
// stay queued on disk. Drain returns when every worker has exited.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	for _, j := range s.jobs {
		if j.State == StateRunning && !j.stopSent {
			j.intent = "drain"
			j.stopSent = true
			close(j.stop)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.logf("drained: all workers stopped")
}

// worker is one pool slot: claim the queue head, run the attempt, apply
// the outcome transition, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.draining && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		if j.State != StateQueued {
			// Canceled while waiting; the record already says so.
			s.mu.Unlock()
			continue
		}
		j.State = StateRunning
		j.stop = make(chan struct{})
		j.stopSent = false
		j.intent = ""
		if j.StartedAt.IsZero() {
			j.StartedAt = time.Now().UTC()
		}
		if j.resume != nil {
			j.Metrics.Resumes++
		}
		s.mu.Unlock()
		s.persist(j)

		res, err := s.attempt(j)

		s.mu.Lock()
		switch {
		case err != nil:
			j.State = StateFailed
			j.Err = err.Error()
			j.FinishedAt = time.Now().UTC()
			j.Feed.Close()
			s.logf("job %s failed: %v", j.ID, err)
		case res.Stopped && j.intent == "cancel":
			j.State = StateCanceled
			j.FinishedAt = time.Now().UTC()
			j.Feed.Close()
			if j.roll != nil {
				j.roll.Clean()
			}
			s.logf("job %s canceled after %d steps", j.ID, j.Metrics.StepsDone)
		case res.Stopped && j.intent == "preempt":
			j.State = StatePreempted
			j.resume = res.Final
			j.Metrics.Preemptions++
			// Automatic resume: back of the queue, next free worker.
			j.State = StateQueued
			s.queue = append(s.queue, j.ID)
			s.cond.Signal()
			s.logf("job %s preempted at step %d; requeued", j.ID, j.Metrics.StepsDone)
		case res.Stopped && j.intent == "drain":
			j.State = StatePreempted
			j.resume = res.Final
			j.Metrics.Preemptions++
			s.logf("job %s checkpointed for drain at step %d", j.ID, j.Metrics.StepsDone)
		default:
			j.State = StateDone
			j.FinishedAt = time.Now().UTC()
			j.Feed.Close()
			if j.roll != nil {
				// The checkpoints were crash insurance; the record now
				// carries the result.
				j.roll.Clean()
			}
			s.logf("job %s done: %d steps", j.ID, j.Metrics.StepsDone)
		}
		s.mu.Unlock()
		s.persist(j)
	}
}

// attempt runs one segment of the job: the spec from the resume point (if
// any) up to its trajectory length, with the ground state from the SCF
// cache - unless the checkpoint already covers the trajectory (a restart
// adopting a last-step checkpoint), which needs none. A preempt or drain
// that fires as the final step completes ends a finished segment: sim.Run
// reports it not Stopped, and the job is done.
func (s *Server) attempt(j *Job) (*sim.Result, error) {
	s.mu.Lock()
	spec := j.Spec
	resume := j.resume
	stop := j.stop
	roll := j.roll
	firstAttempt := j.resume == nil && j.Metrics.StepsDone == 0
	s.mu.Unlock()
	left, err := spec.Remaining(resume)
	if err != nil {
		return nil, err
	}
	var gs *scf.Result
	if left > 0 {
		key, err := spec.SCFKey()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var hit bool
		gs, hit, err = s.cache.GroundState(key, func() (*scf.Result, error) { return s.solve(&spec) })
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if hit {
			s.scfHits++
		} else {
			s.scfMisses++
		}
		if firstAttempt {
			j.Metrics.SCFCacheHit = hit
			j.Metrics.SCFWallSec = time.Since(start).Seconds()
		}
		s.mu.Unlock()
	}

	// Each attempt records onto a fresh flight recorder; the folded
	// aggregates accumulate across attempts on the job and the server.
	rec := trace.NewRecorder()
	segDone := 0
	res, err := s.run(&spec, sim.Options{
		Trace:  rec,
		Stop:   stop,
		Ground: gs,
		Resume: resume,
		OnSample: func(smp observe.Sample) {
			j.Feed.Append(smp)
			s.mu.Lock()
			j.Metrics.StepsDone = smp.Step
			s.mu.Unlock()
			// Persist the record on the periodic-checkpoint cadence, so a
			// crash loses at most CkptEvery streamed samples: the replayed
			// feed stays aligned with the checkpoint the job resumes from.
			segDone++
			if roll != nil && s.cfg.CkptEvery > 0 && segDone%s.cfg.CkptEvery == 0 {
				s.persist(j)
			}
		},
		Ckpt:      roll,
		CkptEvery: s.cfg.CkptEvery,
	})
	if res != nil {
		s.mu.Lock()
		j.Metrics.RankSeconds += res.RankSeconds
		j.Metrics.BytesMoved += res.BytesMoved
		if len(res.PhaseSeconds) > 0 {
			if j.Metrics.PhaseSeconds == nil {
				j.Metrics.PhaseSeconds = make(map[string]float64, len(res.PhaseSeconds))
			}
			for name, sec := range res.PhaseSeconds {
				j.Metrics.PhaseSeconds[name] += sec
			}
		}
		s.rankSecTotal += res.RankSeconds
		s.bytesTotal += res.BytesMoved
		s.mu.Unlock()
	}
	return res, err
}
