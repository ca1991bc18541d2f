package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptdft/internal/observe"
	"ptdft/internal/sim"
)

// e2eSpec is the smallest real system (Si8, Ecut 2 Ha): a full SCF +
// PT-CN trajectory in well under a second.
func e2eSpec(steps int) sim.Spec {
	return sim.Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
		DtAs: 24, Steps: steps, Kick: 0.02, Seed: 1234,
	}
}

// startE2E builds a real server (sim.Run) behind an httptest listener.
func startE2E(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// submit POSTs a spec and returns the created job view.
func submit(t testing.TB, ts *httptest.Server, spec sim.Spec) View {
	t.Helper()
	body, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued {
		t.Fatalf("submitted job in state %s, want queued", v.State)
	}
	return v
}

// getJob GETs one job view.
func getJob(t testing.TB, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitHTTP polls the API until the job reaches the state.
func waitHTTP(t testing.TB, ts *httptest.Server, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s ended %s (err %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readStream consumes the job's SSE stream to the terminal state event,
// returning the samples and the final state.
func readStream(t testing.TB, ts *httptest.Server, id string) ([]observe.Sample, State) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var samples []observe.Sample
	var final State
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "sample":
				var smp observe.Sample
				if err := json.Unmarshal([]byte(data), &smp); err != nil {
					t.Fatalf("bad sample event %q: %v", data, err)
				}
				samples = append(samples, smp)
			case "state":
				var st struct {
					State State `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatalf("bad state event %q: %v", data, err)
				}
				final = st.State
				return samples, final
			}
		}
	}
	t.Fatalf("stream ended without a state event (%d samples)", len(samples))
	return nil, ""
}

// apiError decodes a typed JSON error response.
func apiError(t testing.TB, resp *http.Response) (string, string) {
	t.Helper()
	defer resp.Body.Close()
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error response is not typed JSON: %v", err)
	}
	return body.Error.Code, body.Error.Message
}

// TestE2ELifecycleSerial: submit -> queued -> running -> stream -> done
// for a serial job, with the trajectory visible through both the SSE
// stream and the final job record.
func TestE2ELifecycleSerial(t *testing.T) {
	_, ts := startE2E(t, Config{Workers: 2})
	v := submit(t, ts, e2eSpec(6))
	samples, final := readStream(t, ts, v.ID)
	if final != StateDone {
		t.Fatalf("stream ended in %s, want done", final)
	}
	if len(samples) != 6 {
		t.Fatalf("streamed %d samples, want 6", len(samples))
	}
	for i, smp := range samples {
		if smp.Step != i+1 {
			t.Errorf("sample %d has step %d", i, smp.Step)
		}
	}
	got := waitHTTP(t, ts, v.ID, StateDone)
	if len(got.Samples) != 6 {
		t.Errorf("job record has %d samples, want 6", len(got.Samples))
	}
	if got.Metrics.SCFCacheHit {
		t.Error("first job reported an SCF cache hit")
	}
	if got.Metrics.SCFWallSec <= 0 {
		t.Error("first job reports zero SCF wall time")
	}
	if got.Metrics.StepsDone != 6 {
		t.Errorf("steps_done %d, want 6", got.Metrics.StepsDone)
	}
	if got.StartedAt.IsZero() || got.FinishedAt.IsZero() {
		t.Error("timestamps not recorded")
	}
}

// TestE2EHybridDistributed: the lifecycle holds for a 2-rank hybrid job
// (ACE + MTS), the composition the CLI runs with -hybrid -ace -mts.
func TestE2EHybridDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed hybrid trajectory: skipped in -short mode")
	}
	_, ts := startE2E(t, Config{Workers: 1})
	spec := e2eSpec(4)
	spec.Ranks = 2
	spec.Hybrid = true
	spec.ACE = true
	spec.MTS = 2
	spec.Exchange = "overlap"
	v := submit(t, ts, spec)
	samples, final := readStream(t, ts, v.ID)
	if final != StateDone {
		t.Fatalf("stream ended in %s, want done", final)
	}
	if len(samples) != 4 {
		t.Fatalf("streamed %d samples, want 4", len(samples))
	}
	got := getJob(t, ts, v.ID)
	if got.Metrics.StepsDone != 4 {
		t.Errorf("steps_done %d, want 4", got.Metrics.StepsDone)
	}
}

// TestE2EPreemptResumeMatchesUninterrupted: preempt a running job
// mid-trajectory over the API; the automatically resumed result matches
// an uninterrupted run of the same spec to 1e-10. The job runs under the
// 380nm pulse, not the kick: the pulse envelope is shaped by the
// trajectory length, so this pins that a resumed segment sees the
// identical laser field (not one re-derived from the remaining steps).
func TestE2EPreemptResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("full preempt/resume trajectory comparison: skipped in -short mode")
	}
	const steps = 60
	pulsed := e2eSpec(steps)
	pulsed.Kick = 0
	pulsed.PulseE0 = 0.005
	spec := pulsed
	ref, err := sim.Run(&spec, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startE2E(t, Config{Workers: 1})
	v := submit(t, ts, pulsed)
	// Preempt once the trajectory is underway but far from done: on one
	// thread the poll and the preempt request each queue behind the
	// running step loop, so the window is most of the trajectory.
	deadline := time.Now().Add(120 * time.Second)
	for {
		got := getJob(t, ts, v.ID)
		if got.State == StateRunning && got.Metrics.StepsDone >= 2 {
			break
		}
		if got.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no preemption window: job is %s after %d steps", got.State, got.Metrics.StepsDone)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/jobs/"+v.ID+"/preempt", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preempt: status %d", resp.StatusCode)
	}
	got := waitHTTP(t, ts, v.ID, StateDone)
	if got.Metrics.Preemptions != 1 || got.Metrics.Resumes != 1 {
		t.Errorf("metrics %+v, want 1 preemption and 1 resume", got.Metrics)
	}
	if len(got.Samples) != steps {
		t.Fatalf("preempted+resumed job has %d samples, want %d", len(got.Samples), steps)
	}
	for i := range got.Samples {
		if got.Samples[i].Step != ref.Samples[i].Step {
			t.Fatalf("sample %d: step %d vs reference %d", i, got.Samples[i].Step, ref.Samples[i].Step)
		}
		if d := math.Abs(got.Samples[i].Energy - ref.Samples[i].Energy); d > 1e-10 {
			t.Errorf("sample %d: energy differs from uninterrupted run by %g, want <= 1e-10", i, d)
		}
		if d := math.Abs(got.Samples[i].CurrentZ - ref.Samples[i].CurrentZ); d > 1e-10 {
			t.Errorf("sample %d: current differs from uninterrupted run by %g", i, d)
		}
	}
}

// TestE2ESCFCacheHitIdenticalResult: a second submission of the same
// physical system reuses the cached ground state (measured in the job
// record) and produces an identical trajectory to 1e-12.
func TestE2ESCFCacheHitIdenticalResult(t *testing.T) {
	if testing.Short() {
		t.Skip("three full trajectories: skipped in -short mode")
	}
	_, ts := startE2E(t, Config{Workers: 1})
	a := submit(t, ts, e2eSpec(5))
	cold := waitHTTP(t, ts, a.ID, StateDone)
	if cold.Metrics.SCFCacheHit {
		t.Fatal("cold job reported a cache hit")
	}
	b := submit(t, ts, e2eSpec(5))
	warm := waitHTTP(t, ts, b.ID, StateDone)
	if !warm.Metrics.SCFCacheHit {
		t.Fatal("identical resubmission did not hit the SCF cache")
	}
	if warm.Metrics.SCFWallSec >= cold.Metrics.SCFWallSec/2 {
		t.Errorf("cache hit took %.3fs vs cold %.3fs - the solve was not skipped",
			warm.Metrics.SCFWallSec, cold.Metrics.SCFWallSec)
	}
	if len(warm.Samples) != len(cold.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(warm.Samples), len(cold.Samples))
	}
	for i := range cold.Samples {
		if d := math.Abs(warm.Samples[i].Energy - cold.Samples[i].Energy); d > 1e-12 {
			t.Errorf("sample %d: cache-hit energy differs by %g, want <= 1e-12", i, d)
		}
		if d := math.Abs(warm.Samples[i].Excited - cold.Samples[i].Excited); d > 1e-12 {
			t.Errorf("sample %d: cache-hit excited count differs by %g", i, d)
		}
	}
	// A different seed must not share the ground state.
	specC := e2eSpec(1)
	specC.Seed = 77
	c := submit(t, ts, specC)
	other := waitHTTP(t, ts, c.ID, StateDone)
	if other.Metrics.SCFCacheHit {
		t.Error("different seed hit the cache")
	}
}

// TestE2ECancelAndErrors: cancel over the API, and every malformed or
// conflicting request returns the typed JSON error envelope.
func TestE2ECancelAndErrors(t *testing.T) {
	s, ts := startE2E(t, Config{Workers: 1})

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("malformed JSON: status %d code %s, want 400 bad_request", resp.StatusCode, code)
	}

	// Unknown field.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"frobnicate": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("unknown field: status %d code %s, want 400 bad_request", resp.StatusCode, code)
	}

	// A field a past version accepted (steal_chunk, removed with its
	// schedule; acehold, the removed alias of ace + mts 1) is an unknown
	// field too: an otherwise runnable old-style body is refused before it
	// reaches the queue.
	for field, val := range map[string]string{"steal_chunk": "4", "acehold": "true"} {
		resp, err = http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"cells":[1,1,1],"ecut":2,"steps":3,"hybrid":true,"`+field+`":`+val+`}`))
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || code != "bad_request" || !strings.Contains(msg, field) {
			t.Errorf("removed field: status %d code %s (%s), want 400 bad_request naming %s", resp.StatusCode, code, msg, field)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("rejected body left %d job(s) in the queue", len(jobs))
	}

	// A body beyond the 1 MiB bound is cut off, not buffered.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"displace":"`+strings.Repeat("a", 2*maxSpecBytes)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := apiError(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || code != "too_large" {
		t.Errorf("oversized body: status %d code %s, want 413 too_large", resp.StatusCode, code)
	}

	// Valid JSON, invalid simulation.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"cells":[1,1,1],"ecut":2,"steps":3,"mts":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := apiError(t, resp); resp.StatusCode != http.StatusUnprocessableEntity || code != "invalid_spec" {
		t.Errorf("invalid spec: status %d code %s (%s), want 422 invalid_spec", resp.StatusCode, code, msg)
	}

	// Unknown job.
	resp, err = http.Get(ts.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := apiError(t, resp); resp.StatusCode != http.StatusNotFound || code != "not_found" {
		t.Errorf("unknown job: status %d code %s, want 404 not_found", resp.StatusCode, code)
	}

	// Cancel a running job: long trajectory, canceled almost immediately.
	v := submit(t, ts, e2eSpec(500))
	waitHTTP(t, ts, v.ID, StateRunning)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := waitHTTP(t, ts, v.ID, StateCanceled)
	if got.Metrics.StepsDone >= 500 {
		t.Error("canceled job ran to completion")
	}

	// Preempting the canceled job conflicts.
	resp, err = http.Post(ts.URL+"/jobs/"+v.ID+"/preempt", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := apiError(t, resp); resp.StatusCode != http.StatusConflict || code != "conflict" {
		t.Errorf("preempt canceled: status %d code %s, want 409 conflict", resp.StatusCode, code)
	}

	// Canceling it again conflicts too.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := apiError(t, resp); resp.StatusCode != http.StatusConflict || code != "conflict" {
		t.Errorf("double cancel: status %d code %s, want 409 conflict", resp.StatusCode, code)
	}
}

// TestE2ERestartResumesRealJob: drain a server mid-trajectory, start a
// new one on the same directory, and the adopted job completes with the
// uninterrupted result to 1e-10.
func TestE2ERestartResumesRealJob(t *testing.T) {
	if testing.Short() {
		t.Skip("two servers and a full trajectory comparison: skipped in -short mode")
	}
	const steps = 30
	spec := e2eSpec(steps)
	ref, err := sim.Run(&spec, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The periodic cadence exercises the crash-insurance path: rolling
	// checkpoints plus the record persisted alongside each one.
	a, err := New(Config{Workers: 1, Dir: dir, CkptEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	va, err := a.Submit(e2eSpec(steps))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		v, _ := a.Get(va.ID)
		if v.State == StateRunning && v.Metrics.StepsDone >= 5 {
			break
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no drain window: job is %s after %d steps", v.State, v.Metrics.StepsDone)
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.Drain()
	interrupted, _ := a.Get(va.ID)
	if interrupted.State != StatePreempted {
		t.Fatalf("drained job is %s, want preempted", interrupted.State)
	}

	b, err := New(Config{Workers: 1, Dir: dir, CkptEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Drain()
	var got View
	deadline = time.Now().Add(120 * time.Second)
	for {
		v, ok := b.Get(va.ID)
		if !ok {
			t.Fatalf("job %s not adopted", va.ID)
		}
		if v.State == StateDone {
			got = v
			break
		}
		if v.State.Terminal() {
			t.Fatalf("adopted job ended %s: %s", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted job stuck in %s", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Metrics.Resumes < 1 {
		t.Errorf("adopted job counts %d resumes, want >= 1", got.Metrics.Resumes)
	}
	if got.Metrics.StepsDone != steps {
		t.Fatalf("adopted job finished at step %d, want %d", got.Metrics.StepsDone, steps)
	}
	last := got.Samples[len(got.Samples)-1]
	refLast := ref.Samples[len(ref.Samples)-1]
	if last.Step != refLast.Step {
		t.Fatalf("final step %d, reference %d", last.Step, refLast.Step)
	}
	if d := math.Abs(last.Energy - refLast.Energy); d > 1e-10 {
		t.Errorf("final energy differs from uninterrupted run by %g, want <= 1e-10", d)
	}
	if d := math.Abs(last.CurrentZ - refLast.CurrentZ); d > 1e-10 {
		t.Errorf("final current differs from uninterrupted run by %g", d)
	}
}

// TestE2EAdoptFailsRemovedConfigurations: an interrupted record whose spec
// asks for a configuration this version removed is failed at adoption with
// the typed error, on disk too, without a worker spending a ground state on
// it; the queue behind it still runs.
func TestE2EAdoptFailsRemovedConfigurations(t *testing.T) {
	dir := t.TempDir()
	removed := []func(*sim.Spec){
		func(s *sim.Spec) { s.Hybrid, s.Ranks, s.Exchange = true, 2, "bcast" },
		func(s *sim.Spec) { s.Hybrid, s.ACE = true, true },
		func(s *sim.Spec) { s.Hybrid, s.Ranks, s.SinglePrec = true, 2, true },
	}
	for i, mod := range removed {
		spec := e2eSpec(3)
		mod(&spec)
		writeRecord(t, dir, View{
			ID: fmt.Sprintf("j%06d", i+1), Spec: spec, State: StateRunning,
			SubmittedAt: time.Now().UTC(), StartedAt: time.Now().UTC(),
		})
	}
	s, ts := startE2E(t, Config{Workers: 1, Dir: dir})
	for i := range removed {
		id := fmt.Sprintf("j%06d", i+1)
		v := getJob(t, ts, id)
		if v.State != StateFailed || !strings.Contains(v.Error, "was removed") {
			t.Errorf("adopted %s: state %s, error %q; want failed, naming what was removed", id, v.State, v.Error)
		}
		if rec, err := readRecord(filepath.Join(dir, id+".json")); err != nil || rec.State != StateFailed {
			t.Errorf("record of %s on disk: %v, %v; want failed", id, rec, err)
		}
	}
	if m := s.snapshotMetrics(); m.scfMisses != 0 || m.scfHits != 0 {
		t.Errorf("adoption solved %d ground states (%d cached), want none", m.scfMisses, m.scfHits)
	}
	next := submit(t, ts, e2eSpec(2))
	if next.ID != fmt.Sprintf("j%06d", len(removed)+1) {
		t.Errorf("next job is %s, want the id after the adopted ones", next.ID)
	}
	waitHTTP(t, ts, next.ID, StateDone)
	if m := s.snapshotMetrics(); m.scfMisses != 1 {
		t.Errorf("%d cold ground states after one fresh job, want 1", m.scfMisses)
	}
}

// TestE2EConcurrentJobs: the server multiplexes at least 4 concurrent
// jobs (the acceptance floor) and every one of them completes correctly.
func TestE2EConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("six concurrent SCF solves: skipped in -short mode")
	}
	_, ts := startE2E(t, Config{Workers: 4})
	var ids []string
	for i := 0; i < 6; i++ {
		spec := e2eSpec(4)
		// Distinct seeds: six independent SCF problems, so the cache
		// cannot serialize them.
		spec.Seed = int64(1000 + i)
		ids = append(ids, submit(t, ts, spec).ID)
	}
	for _, id := range ids {
		got := waitHTTP(t, ts, id, StateDone)
		if got.Metrics.StepsDone != 4 {
			t.Errorf("job %s finished %d steps, want 4", id, got.Metrics.StepsDone)
		}
	}
	// The list endpoint sees all of them, oldest first.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list.Jobs), len(ids))
	}
	for i := 1; i < len(list.Jobs); i++ {
		if list.Jobs[i].ID <= list.Jobs[i-1].ID {
			t.Fatalf("list not in submission order: %s after %s", list.Jobs[i].ID, list.Jobs[i-1].ID)
		}
	}
}
