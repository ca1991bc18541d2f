// Job persistence: one <id>.json record per job in the server directory,
// rewritten atomically on every lifecycle transition, plus the rolling
// checkpoint sequence <id>.ckp* the simulation layer writes. Together
// they make jobs durable across server restarts: on start the server
// scans the directory, re-registers terminal jobs as history, and
// re-queues every interrupted job with its newest loadable checkpoint as
// the resume point - or fails it, when its spec no longer validates.
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ptdft/internal/observe"
)

func (s *Server) recordPath(id string) string { return filepath.Join(s.cfg.Dir, id+".json") }
func (s *Server) ckptPath(id string) string   { return filepath.Join(s.cfg.Dir, id+".ckp") }

// persist writes the job's current record (atomic rename). A no-op
// without a server directory; a failed write is logged, not fatal - the
// job still runs, it just will not survive a restart. Concurrent callers
// (a lifecycle transition racing the streaming-cadence persist) are
// serialized per job, each through its own temp file, so the rename only
// ever installs a complete record.
func (s *Server) persist(j *Job) {
	if s.cfg.Dir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	s.mu.Lock()
	rec := j.view(true)
	s.mu.Unlock()
	data, err := json.MarshalIndent(&rec, "", " ")
	if err != nil {
		s.logf("job %s: persist: %v", j.ID, err)
		return
	}
	path := s.recordPath(j.ID)
	tmp, err := os.CreateTemp(s.cfg.Dir, j.ID+".*.tmp")
	if err != nil {
		s.logf("job %s: persist: %v", j.ID, err)
		return
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.logf("job %s: persist: %v", j.ID, err)
	}
}

// adopt scans the server directory and re-registers every recorded job:
// terminal jobs as queryable history, interrupted ones (queued, running,
// preempted) back onto the queue with the newest loadable checkpoint as
// their resume point. Queue order is submission order (sequential IDs).
// An interrupted job whose spec no longer validates - a configuration a
// later version removed (sim.RemovedError) - is recorded as failed with
// that error instead, before a worker spends a ground state on it.
// An unreadable or corrupt record is quarantined (logged and skipped),
// not fatal: one torn file must not refuse the whole directory.
func (s *Server) adopt() error {
	if s.cfg.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return err
	}
	matches, err := filepath.Glob(filepath.Join(s.cfg.Dir, "j*.json"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	for _, path := range matches {
		rec, err := readRecord(path)
		if err != nil {
			s.logf("adopt: quarantined %s: %v", path, err)
			continue
		}
		if s.jobs[rec.ID] != nil {
			s.logf("adopt: quarantined %s: duplicate job id %s", path, rec.ID)
			continue
		}
		j := &Job{
			ID: rec.ID, Spec: rec.Spec, State: rec.State, Err: rec.Error,
			SubmittedAt: rec.SubmittedAt, StartedAt: rec.StartedAt, FinishedAt: rec.FinishedAt,
			Metrics: rec.Metrics,
			Feed:    observe.NewFeed(),
			roll:    s.rollFor(rec.ID),
		}
		if n := idNumber(rec.ID); n > s.nextID {
			s.nextID = n
		}
		if j.State.Terminal() {
			for _, smp := range rec.Samples {
				j.Feed.Append(smp)
			}
			j.Feed.Close()
		} else if err := j.Spec.Validate(); err != nil {
			j.State, j.Err, j.FinishedAt = StateFailed, err.Error(), time.Now().UTC()
			for _, smp := range rec.Samples {
				j.Feed.Append(smp)
			}
			j.Feed.Close()
			s.persist(j)
			s.logf("adopt: job %s failed: %v", j.ID, err)
		} else {
			// The process that ran this job is gone; whatever state it was
			// in, it continues from its newest durable checkpoint (or from
			// scratch if none was written). The replayed samples are
			// truncated to the resume point: the record may have been
			// persisted ahead of the checkpoint the job restarts from, and
			// the resumed attempt re-streams everything past it.
			if st, _, err := j.roll.Latest(); err == nil {
				j.resume = st
			}
			limit := j.Spec.Progress(j.resume)
			for _, smp := range rec.Samples {
				if smp.Step <= limit {
					j.Feed.Append(smp)
				}
			}
			j.Metrics.StepsDone = limit
			j.State = StateQueued
			s.queue = append(s.queue, j.ID)
		}
		s.jobs[j.ID] = j
	}
	if len(s.jobs) > 0 {
		s.logf("adopted %d job record(s), %d requeued", len(s.jobs), len(s.queue))
	}
	return nil
}

// readRecord loads and validates one job record file.
func readRecord(path string) (*View, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec View
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("corrupt job record: %w", err)
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("job record without an id")
	}
	return &rec, nil
}

// idNumber extracts the sequence number of a job ID ("j000042" -> 42).
func idNumber(id string) int {
	n := 0
	for _, c := range strings.TrimPrefix(id, "j") {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
