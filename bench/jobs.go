package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ptdft/internal/server"
)

const (
	jobClients = 2 // closed loop: each client submits its next job when the last one's stream closed
	hotSeeds   = 4 // ground states the warm-up solves and the repeat jobs reuse
	coldEvery  = 3 // one job in every coldEvery of a client carries a seed never seen before: a full SCF
)

// jobsState is a running in-process ptdftd with a seeded SCF cache.
type jobsState struct {
	w    workload
	dir  string
	srv  *server.Server
	http *httptest.Server
	hot  []int64
	cold int64 // base of the never-repeating seed stream
}

// setupJobs starts the daemon behind an httptest listener and runs the
// warm-up: one cold job per hot seed, all clients busy, which solves the
// ground states the timed repeat jobs hit and finishes lazy set-up.
func setupJobs(w workload, cfg runConfig) (*jobsState, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "ptdftd-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: 2, Dir: dir, CkptEvery: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	js := &jobsState{w: w, dir: dir, srv: srv, http: httptest.NewServer(srv.Handler())}
	rng := rand.New(rand.NewSource(cfg.seed))
	js.cold = 1 + rng.Int63n(1<<40)
	for i := 0; i < hotSeeds; i++ {
		js.hot = append(js.hot, js.cold+int64(1+i))
	}
	js.cold += 1 + hotSeeds
	errs := make([]error, jobClients)
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < hotSeeds; i += jobClients {
				if o := js.runJob(js.hot[i]); o.failure != "" && errs[c] == nil {
					errs[c] = fmt.Errorf("warm-up job seed %d: %s", js.hot[i], o.failure)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			js.close()
			return nil, err
		}
	}
	return js, nil
}

// close stops the listener and the worker pool and removes the records.
func (js *jobsState) close() {
	js.http.Close()
	js.srv.Drain()
	os.RemoveAll(js.dir)
}

// jobObs is what one client saw of one job.
type jobObs struct {
	submitMS      float64 // POST /jobs round trip
	firstSampleMS float64 // POST sent to first streamed sample
	totalMS       float64 // POST sent to stream closed
	start, end    time.Time
	streamed      int // sample events on the stream
	view          server.View
	recordBytes   int64
	failure       string
}

// runJob is one client operation: POST /jobs, follow the stream to its
// close, GET the finished job.
func (js *jobsState) runJob(seed int64) (o jobObs) {
	spec := js.w.Spec
	spec.Seed = seed
	body, err := json.Marshal(&spec)
	if err != nil {
		o.failure = err.Error()
		return o
	}
	o.start = time.Now()
	resp, err := http.Post(js.http.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.failure = "POST /jobs: " + err.Error()
		return o
	}
	var queued server.View
	err = json.NewDecoder(resp.Body).Decode(&queued)
	resp.Body.Close()
	o.submitMS = time.Since(o.start).Seconds() * 1e3
	if err != nil || resp.StatusCode != http.StatusCreated {
		o.failure = fmt.Sprintf("POST /jobs: status %d, decode error %v", resp.StatusCode, err)
		return o
	}

	stream, err := http.Get(js.http.URL + "/jobs/" + queued.ID + "/stream")
	if err != nil {
		o.failure = "GET stream: " + err.Error()
		return o
	}
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		if sc.Text() == "event: sample" {
			if o.streamed == 0 {
				o.firstSampleMS = time.Since(o.start).Seconds() * 1e3
			}
			o.streamed++
		}
	}
	stream.Body.Close()
	o.end = time.Now()
	o.totalMS = o.end.Sub(o.start).Seconds() * 1e3
	if err := sc.Err(); err != nil {
		o.failure = "reading stream: " + err.Error()
		return o
	}

	got, err := http.Get(js.http.URL + "/jobs/" + queued.ID)
	if err != nil {
		o.failure = "GET job: " + err.Error()
		return o
	}
	err = json.NewDecoder(got.Body).Decode(&o.view)
	got.Body.Close()
	if err != nil {
		o.failure = "GET job: " + err.Error()
		return o
	}
	if fi, err := os.Stat(filepath.Join(js.dir, queued.ID+".json")); err == nil {
		o.recordBytes = fi.Size()
	}
	return o
}

// checkJob is the correctness gate of one job.
func (js *jobsState) checkJob(o jobObs, gold goldenEntry) string {
	if o.failure != "" {
		return o.failure
	}
	want := js.w.Spec.Steps
	if o.view.State != server.StateDone {
		return fmt.Sprintf("state %q (%s), want done", o.view.State, o.view.Error)
	}
	if o.streamed != want || len(o.view.Samples) != want {
		return fmt.Sprintf("%d streamed and %d recorded samples, want %d", o.streamed, len(o.view.Samples), want)
	}
	if e := o.view.Samples[want-1].Energy; !(math.Abs(e-gold.EnergyHa) <= tolEnergyJob) {
		return fmt.Sprintf("final energy %.10f Ha, golden %.10f (tolerance %g)", e, gold.EnergyHa, tolEnergyJob)
	}
	return ""
}

// loop runs the closed loop for the given time and returns every job,
// client by client, with the wall time from the first POST to the last
// stream close. Every block of coldEvery jobs of a client holds one cold
// job, at a position fixed per client (client 0: C H H ..., client 1:
// H C H ...), so the cold share is exactly 1/coldEvery and the clients'
// cold solves are staggered the same way on every run; the seed picks
// which hot ground state a repeat job asks for and the cold seed values.
func (js *jobsState) loop(seconds float64, seed int64) ([]jobObs, float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]jobObs, jobClients)
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*jobClients + int64(c) + 1))
			for n := 0; time.Now().Before(deadline); n++ {
				jobSeed := js.hot[rng.Intn(hotSeeds)]
				if n%coldEvery == c%coldEvery {
					// Distinct per client and per job: never in the cache.
					jobSeed = js.cold + int64(n*jobClients+c)
				}
				perClient[c] = append(perClient[c], js.runJob(jobSeed))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var all []jobObs
	for _, obs := range perClient {
		all = append(all, obs...)
	}
	return all, wall
}

// tally checks every job and returns those that passed.
func (js *jobsState) tally(r *result, obs []jobObs, gold goldenEntry) (passed []jobObs) {
	for i, o := range obs {
		if r.tally(fmt.Sprintf("job %d", i), 1, js.checkJob(o, gold)) {
			passed = append(passed, o)
		}
	}
	return passed
}

func pick(obs []jobObs, f func(jobObs) float64) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = f(o)
	}
	return out
}

// runJobsE2E measures the end-to-end metrics of the daemon workload. The
// daemon's own always-on recorder stays on: its users pay for it. Every
// time is divided by the machine's slowdown around it.
func runJobsE2E(r *result, w workload, cfg runConfig, cal *calibrator, gold goldenEntry) error {
	var setups []float64
	var js *jobsState
	for i := 0; i < cfg.setups; i++ {
		if js != nil {
			js.close()
		}
		t := time.Now()
		s, err := setupJobs(w, cfg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds()/cal.slowdown(t, time.Now()))
		js = s
	}
	defer js.close()
	obs, _ := js.loop(cfg.seconds, cfg.seed)
	passed := js.tally(r, obs, gold)
	if len(passed) == 0 {
		return fmt.Errorf("no job passed its checks: %s", strings.Join(r.Failures, " | "))
	}
	for _, o := range passed {
		r.OpRawMS = append(r.OpRawMS, o.totalMS)
		r.OpMS = append(r.OpMS, o.totalMS/cal.slowdown(o.start, o.end))
	}
	r.samples = len(passed)
	r.set("setup_s", median(setups))
	r.set("op_ms_p50", median(r.OpMS))
	// Closed loop: each client finishes one job per mean job time.
	r.set("sim_as_per_s", jobClients*float64(w.Spec.Steps)*w.Spec.DtAs/(mean(r.OpMS)/1e3))
	r.set("peak_rss_mb", peakRSSMB())
	return nil
}

// runJobsLayers takes the per-layer numbers of the daemon workload from
// the job views, the record files and the probes on the job's own system.
func runJobsLayers(r *result, w workload, cfg runConfig, gold goldenEntry) error {
	js, err := setupJobs(w, cfg)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	// The probes on an Ecut 2 system are short: most of the time goes to
	// the loop, so that the p90 below has samples behind it.
	obs, wall := js.loop(0.75*cfg.seconds, cfg.seed)
	passed := js.tally(r, obs, gold)
	js.close()
	if len(passed) == 0 {
		return fmt.Errorf("no job passed its checks: %s", strings.Join(r.Failures, " | "))
	}
	r.samples = len(passed)

	var hits, steps float64
	var miss []float64
	phase := map[string]float64{}
	for _, o := range passed {
		m := o.view.Metrics
		if m.SCFCacheHit {
			hits++
		} else {
			miss = append(miss, m.SCFWallSec)
		}
		steps += float64(m.StepsDone)
		for name, sec := range m.PhaseSeconds {
			phase[name] += sec
		}
	}
	lat := pick(passed, func(o jobObs) float64 { return o.totalMS })
	r.set("sim.raw_op_ms_p50", quantile(lat, 0.5))
	r.set("sim.raw_op_ms_p90", quantile(lat, 0.9))
	r.set("sim.raw_as_per_s", float64(len(passed)*w.Spec.Steps)*w.Spec.DtAs/wall)
	r.set("scf.cache_hit_ratio", hits/float64(len(passed)))
	r.set("server.submit_ms_p50", median(pick(passed, func(o jobObs) float64 { return o.submitMS })))
	r.set("server.queue_wait_ms_p50", median(pick(passed, func(o jobObs) float64 {
		return o.view.StartedAt.Sub(o.view.SubmittedAt).Seconds() * 1e3
	})))
	r.set("server.first_sample_ms_p50", median(pick(passed, func(o jobObs) float64 { return o.firstSampleMS })))
	r.set("server.scf_wall_s_miss_p50", median(miss))
	r.set("server.run_s_p50", median(pick(passed, func(o jobObs) float64 {
		return o.view.FinishedAt.Sub(o.view.StartedAt).Seconds()
	})))
	r.set("server.record_bytes_per_job", median(pick(passed, func(o jobObs) float64 { return float64(o.recordBytes) })))
	r.set("server.rank_seconds_per_job", median(pick(passed, func(o jobObs) float64 { return o.view.Metrics.RankSeconds })))
	r.set("core.scf_iters_per_step", scfItersPerStep(passed))
	setSerialPhases(r, phase, 1e3/steps)

	// The probes run on the job's own system, after the daemon is gone.
	st, err := setupSolver(w, cfg.seed)
	if err != nil {
		return fmt.Errorf("probe set-up: %w", err)
	}
	r.set("scf.ground_iters", float64(st.gs.SCFIterations))
	return (&probes{solverState: st, tmp: cfg.tmp}).run(r)
}

func scfItersPerStep(obs []jobObs) float64 {
	var iters, steps float64
	for _, o := range obs {
		for _, s := range o.view.Samples {
			iters += float64(s.SCFIters)
			steps++
		}
	}
	return iters / steps
}
