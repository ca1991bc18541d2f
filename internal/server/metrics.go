// Live metrics surfaces:
//
//	GET /metrics            Prometheus text exposition (scrapeable)
//	GET /jobs/{id}/profile  one job's phase breakdown and comm accounting
//
// The gauges and counters come straight from the state the server already
// guards with its mutex (job states, queue depth) plus the cumulative
// observability counters every attempt folds in from its flight recorder
// (rank-seconds, bytes moved) and the SCF cache outcome tally.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// metricsSnapshot is one consistent reading of the server's gauges.
type metricsSnapshot struct {
	jobs        map[State]int
	queueDepth  int
	workers     int
	busy        int
	scfHits     int64
	scfMisses   int64
	rankSeconds float64
	bytesMoved  int64
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := metricsSnapshot{
		jobs:        make(map[State]int),
		workers:     s.cfg.workers(),
		scfHits:     s.scfHits,
		scfMisses:   s.scfMisses,
		rankSeconds: s.rankSecTotal,
		bytesMoved:  s.bytesTotal,
	}
	for _, j := range s.jobs {
		m.jobs[j.State]++
		if j.State == StateRunning {
			m.busy++
		}
	}
	// The queue holds stale entries for canceled jobs (dropped lazily by
	// the workers); depth counts only the entries still runnable.
	for _, id := range s.queue {
		if j := s.jobs[id]; j != nil && j.State == StateQueued {
			m.queueDepth++
		}
	}
	return m
}

// allStates fixes the label set so every scrape carries every state series
// (a state with no jobs reads 0 rather than disappearing).
var allStates = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// handleMetrics serves the Prometheus text exposition format (version
// 0.0.4: "# HELP"/"# TYPE" comments and one "name{labels} value" line per
// series).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.snapshotMetrics()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP ptdftd_jobs Jobs by lifecycle state.\n# TYPE ptdftd_jobs gauge\n")
	for _, st := range allStates {
		fmt.Fprintf(&b, "ptdftd_jobs{state=%q} %d\n", st, m.jobs[st])
	}
	fmt.Fprintf(&b, "# HELP ptdftd_queue_depth Runnable jobs waiting for a worker.\n# TYPE ptdftd_queue_depth gauge\n")
	fmt.Fprintf(&b, "ptdftd_queue_depth %d\n", m.queueDepth)
	fmt.Fprintf(&b, "# HELP ptdftd_workers_total Worker pool size.\n# TYPE ptdftd_workers_total gauge\n")
	fmt.Fprintf(&b, "ptdftd_workers_total %d\n", m.workers)
	fmt.Fprintf(&b, "# HELP ptdftd_workers_busy Workers currently running a job.\n# TYPE ptdftd_workers_busy gauge\n")
	fmt.Fprintf(&b, "ptdftd_workers_busy %d\n", m.busy)
	fmt.Fprintf(&b, "# HELP ptdftd_scf_cache_hits_total Ground states served from the SCF cache.\n# TYPE ptdftd_scf_cache_hits_total counter\n")
	fmt.Fprintf(&b, "ptdftd_scf_cache_hits_total %d\n", m.scfHits)
	fmt.Fprintf(&b, "# HELP ptdftd_scf_cache_misses_total Ground states solved fresh.\n# TYPE ptdftd_scf_cache_misses_total counter\n")
	fmt.Fprintf(&b, "ptdftd_scf_cache_misses_total %d\n", m.scfMisses)
	if total := m.scfHits + m.scfMisses; total > 0 {
		fmt.Fprintf(&b, "# HELP ptdftd_scf_cache_hit_ratio Fraction of ground states served from the cache.\n# TYPE ptdftd_scf_cache_hit_ratio gauge\n")
		fmt.Fprintf(&b, "ptdftd_scf_cache_hit_ratio %g\n", float64(m.scfHits)/float64(total))
	}
	fmt.Fprintf(&b, "# HELP ptdftd_rank_seconds_total Cumulative busy seconds over all rank timelines.\n# TYPE ptdftd_rank_seconds_total counter\n")
	fmt.Fprintf(&b, "ptdftd_rank_seconds_total %g\n", m.rankSeconds)
	fmt.Fprintf(&b, "# HELP ptdftd_comm_bytes_total Cumulative bytes moved through job communicators.\n# TYPE ptdftd_comm_bytes_total counter\n")
	fmt.Fprintf(&b, "ptdftd_comm_bytes_total %d\n", m.bytesMoved)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

// profilePhase is one row of a job's phase breakdown, largest first.
type profilePhase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"` // fraction of the summed phase seconds
}

// profileView is the /jobs/{id}/profile response: the job's identity plus
// the flight-recorder accounting of where its time and bytes went.
type profileView struct {
	ID      string         `json:"id"`
	State   State          `json:"state"`
	Metrics Metrics        `json:"metrics"`
	Phases  []profilePhase `json:"phases"`
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"))
		return
	}
	p := profileView{ID: v.ID, State: v.State, Metrics: v.Metrics, Phases: []profilePhase{}}
	var total float64
	for _, sec := range v.Metrics.PhaseSeconds {
		total += sec
	}
	for name, sec := range v.Metrics.PhaseSeconds {
		share := 0.0
		if total > 0 {
			share = sec / total
		}
		p.Phases = append(p.Phases, profilePhase{Name: name, Seconds: sec, Share: share})
	}
	sort.Slice(p.Phases, func(i, k int) bool {
		if p.Phases[i].Seconds != p.Phases[k].Seconds {
			return p.Phases[i].Seconds > p.Phases[k].Seconds
		}
		return p.Phases[i].Name < p.Phases[k].Name
	})
	writeJSON(w, http.StatusOK, p)
}
