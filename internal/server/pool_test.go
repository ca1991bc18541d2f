package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
)

// fakeSim is a stand-in simulation layer for pool tests: runs are
// instant, gated, or blocking, so queue mechanics can be tested without
// FFTs. Jobs are identified by their Seed.
type fakeSim struct {
	mu         sync.Mutex
	running    int
	maxRunning int
	started    []int64       // seeds in run-start order
	solved     int           // ground states built
	gate       chan struct{} // when non-nil, each run blocks here (or on Stop)
}

func (f *fakeSim) solve(spec *sim.Spec) (*scf.Result, error) {
	f.mu.Lock()
	f.solved++
	f.mu.Unlock()
	return &scf.Result{}, nil
}

// run fakes one segment: per step, wait for the gate (if any) or a stop
// request, then emit a sample. Stopped means the stop cut the segment
// short, as in sim.Run. The resume contract matches sim.Run too: the
// segment runs from the checkpoint's cumulative step up to the spec's
// trajectory length, and a checkpoint that covers it is the result.
func (f *fakeSim) run(spec *sim.Spec, opt sim.Options) (*sim.Result, error) {
	f.mu.Lock()
	f.running++
	if f.running > f.maxRunning {
		f.maxRunning = f.running
	}
	f.started = append(f.started, spec.Seed)
	gate := f.gate
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.running--
		f.mu.Unlock()
	}()
	left, err := spec.Remaining(opt.Resume)
	if err != nil {
		return nil, err
	}
	if left == 0 && opt.Resume != nil {
		return &sim.Result{Final: opt.Resume}, nil
	}
	base := spec.TotalSteps() - left
	res := &sim.Result{Ground: &scf.Result{}}
	done := 0
	for i := 0; i < left; i++ {
		if gate != nil {
			select {
			case <-gate:
			case <-opt.Stop:
				res.Stopped = true
			}
		}
		if res.Stopped {
			break
		}
		done = i + 1
		if opt.OnSample != nil {
			opt.OnSample(observe.Sample{Step: base + done})
		}
	}
	res.Final = &checkpoint.State{
		Step: int64(base + done), NBands: 1, NG: 2, Natom: 1, Ecut: spec.Ecut,
		Psi: []complex128{1, 2},
	}
	if opt.Ckpt != nil {
		if err := opt.Ckpt.Save(res.Final); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fakeSpec is a valid spec with the seed as job marker.
func fakeSpec(seed int64, steps int) sim.Spec {
	return sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, Steps: steps, Seed: seed}
}

// startFake builds a server over the fake layer without persistence.
func startFake(t *testing.T, workers int, f *fakeSim) *Server {
	t.Helper()
	s, err := newServer(Config{Workers: workers}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	return s
}

// waitState polls until the job reaches the state (the pool is asynchronous).
func waitState(t *testing.T, s *Server, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolFIFO: with one worker, jobs run strictly in submission order.
func TestPoolFIFO(t *testing.T) {
	f := &fakeSim{}
	s := startFake(t, 1, f)
	defer s.Drain()
	var ids []string
	for i := 0; i < 5; i++ {
		v, err := s.Submit(fakeSpec(int64(i+1), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, seed := range f.started {
		if seed != int64(i+1) {
			t.Fatalf("run order %v, want submission order", f.started)
		}
	}
}

// TestPoolBoundedConcurrency: no more than Workers simulations are ever
// in flight, and the pool does reach that bound.
func TestPoolBoundedConcurrency(t *testing.T) {
	const workers, jobs = 3, 9
	f := &fakeSim{gate: make(chan struct{})}
	s := startFake(t, workers, f)
	defer s.Drain()
	var ids []string
	for i := 0; i < jobs; i++ {
		v, err := s.Submit(fakeSpec(int64(i+1), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// Let the pool saturate, then release all steps.
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		r := f.running
		f.mu.Unlock()
		if r == workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %d running, want %d", r, workers)
		}
		time.Sleep(time.Millisecond)
	}
	close(f.gate)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.maxRunning != workers {
		t.Errorf("max concurrent runs %d, want exactly %d", f.maxRunning, workers)
	}
}

// TestPoolDrain: a graceful drain preempts the running job - checkpointed
// after its step in flight and queued again, as a preempt leaves it;
// queued jobs stay queued; every worker exits.
func TestPoolDrain(t *testing.T) {
	f := &fakeSim{gate: make(chan struct{})}
	s := startFake(t, 1, f)
	running, err := s.Submit(fakeSpec(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(fakeSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	f.gate <- struct{}{} // let one step complete
	f.gate <- struct{}{}
	s.Drain() // returns only when the pool is stopped
	v, _ := s.Get(running.ID)
	if v.State != StateQueued {
		t.Errorf("running job drained to %s, want %s", v.State, StateQueued)
	}
	if v.Metrics.StepsDone != 2 {
		t.Errorf("drained job completed %d steps, want 2", v.Metrics.StepsDone)
	}
	if v.Metrics.Preemptions != 1 {
		t.Errorf("drained job counts %d preemptions, want 1", v.Metrics.Preemptions)
	}
	q, _ := s.Get(queued.ID)
	if q.State != StateQueued {
		t.Errorf("queued job drained to %s, want %s", q.State, StateQueued)
	}
	if _, err := s.Submit(fakeSpec(3, 1)); err == nil {
		t.Error("submission accepted during drain")
	}
}

// TestPoolPreemptRequeuesAndResumes: preempting a running job checkpoints
// it, puts it at the back of the queue, and the next attempt continues
// from the checkpoint to completion.
func TestPoolPreemptRequeuesAndResumes(t *testing.T) {
	f := &fakeSim{gate: make(chan struct{})}
	s := startFake(t, 1, f)
	defer s.Drain()
	v, err := s.Submit(fakeSpec(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateRunning)
	f.gate <- struct{}{}
	f.gate <- struct{}{} // two steps done
	if err := s.Preempt(v.ID); err != nil {
		t.Fatal(err)
	}
	// Unblock the remaining steps of both attempts.
	go func() {
		for {
			select {
			case f.gate <- struct{}{}:
			case <-time.After(2 * time.Second):
				return
			}
		}
	}()
	got := waitState(t, s, v.ID, StateDone)
	if got.Metrics.Preemptions != 1 || got.Metrics.Resumes != 1 {
		t.Errorf("metrics %+v, want 1 preemption and 1 resume", got.Metrics)
	}
	if got.Metrics.StepsDone != 5 {
		t.Errorf("completed %d steps, want 5", got.Metrics.StepsDone)
	}
	// The feed carries the full trajectory with continuous step numbers.
	steps := make([]int, 0, 5)
	for _, smp := range got.Samples {
		steps = append(steps, smp.Step)
	}
	for i, st := range steps {
		if st != i+1 {
			t.Fatalf("sample steps %v, want 1..5 with no gap or repeat", steps)
		}
	}
	if len(steps) != 5 {
		t.Fatalf("feed has %d samples, want 5", len(steps))
	}
	if err := s.Preempt(v.ID); err == nil {
		t.Error("preempting a done job did not error")
	}
}

// TestPoolCancel: canceling a queued job never runs it; canceling a
// running job stops it after the step in flight.
func TestPoolCancel(t *testing.T) {
	f := &fakeSim{gate: make(chan struct{})}
	s := startFake(t, 1, f)
	defer s.Drain()
	running, err := s.Submit(fakeSpec(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(fakeSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, queued.ID, StateCanceled)
	f.gate <- struct{}{}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, running.ID, StateCanceled)
	if got.Metrics.StepsDone != 1 {
		t.Errorf("canceled after %d steps, want 1", got.Metrics.StepsDone)
	}
	f.mu.Lock()
	started := append([]int64(nil), f.started...)
	f.mu.Unlock()
	for _, seed := range started {
		if seed == 2 {
			t.Error("canceled queued job was started")
		}
	}
	if err := s.Cancel(queued.ID); err == nil {
		t.Error("canceling a canceled job did not error")
	}
}

// TestPoolCancelQueuedCleansCheckpoints: a job preempted back into the
// queue holds the checkpoint of its first attempt; canceling it there ends
// it for good, so the checkpoint goes with it, as it does for a job
// canceled while running.
func TestPoolCancelQueuedCleansCheckpoints(t *testing.T) {
	dir := t.TempDir()
	f := &fakeSim{gate: make(chan struct{})}
	s, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	defer s.Drain()
	a, err := s.Submit(fakeSpec(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning)
	f.gate <- struct{}{}
	f.gate <- struct{}{} // two steps done
	b, err := s.Submit(fakeSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Preempt(a.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateQueued) // behind b, which now holds the worker
	ckpts := filepath.Join(dir, a.ID+".ckp*")
	if m, _ := filepath.Glob(ckpts); len(m) == 0 {
		t.Fatal("preempted job left no checkpoint")
	}
	if err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(a.ID); v.State != StateCanceled {
		t.Fatalf("canceled queued job is %s", v.State)
	}
	if m, _ := filepath.Glob(ckpts); len(m) != 0 {
		t.Errorf("canceled job left its checkpoints: %v", m)
	}
	f.gate <- struct{}{}
	waitState(t, s, b.ID, StateDone)
}

// writeRecord drops one job record file into the server directory, the
// way a crashed server would have left it.
func writeRecord(t *testing.T, dir string, rec View) {
	t.Helper()
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, rec.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPoolZeroRemainderResumeCompletes: a checkpoint taken exactly at the
// last step (a crash right after it, before the record says done)
// re-adopts as a job with nothing left to run. It must go
// straight to done without building a ground state: the simulation layer
// returns the checkpoint as it stands. The MD flavor is the sharp case:
// the remainder is counted in ion steps.
func TestPoolZeroRemainderResumeCompletes(t *testing.T) {
	dir := t.TempDir()
	spec := fakeSpec(1, 0)
	spec.MD = true
	spec.IonSteps = 3
	spec.IonDtAs = 96
	writeRecord(t, dir, View{
		Record: Record{
			ID: "j000001", Spec: spec, State: StateRunning,
			SubmittedAt: time.Now().UTC(), StartedAt: time.Now().UTC(),
			Metrics: Metrics{StepsDone: 3},
		},
		Samples: []observe.Sample{{Step: 1}, {Step: 2}, {Step: 3}},
	})
	roll := &checkpoint.Rolling{Base: filepath.Join(dir, "j000001.ckp")}
	if err := roll.Save(&checkpoint.State{
		Step: 12, IonSteps: 3, NBands: 1, NG: 2, Natom: 1, Ecut: spec.Ecut,
		Psi: []complex128{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
	f := &fakeSim{}
	s, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	defer s.Drain()
	got := waitState(t, s, "j000001", StateDone)
	if got.Metrics.StepsDone != 3 {
		t.Errorf("steps_done %d, want 3", got.Metrics.StepsDone)
	}
	if len(got.Samples) != 3 {
		t.Errorf("job record has %d samples, want 3", len(got.Samples))
	}
	f.mu.Lock()
	solved := f.solved
	f.mu.Unlock()
	if solved != 0 {
		t.Errorf("zero-remainder resume built %d ground states, want 0", solved)
	}
}

// TestPoolAdoptTruncatesOverPersistedSamples: the record on disk may be
// newer than the checkpoint (the streaming-cadence persist runs just
// before the checkpoint write). Adoption replays only the samples the
// resume point covers, and the resumed attempt re-streams the rest - no
// duplicate or out-of-order steps in the feed.
func TestPoolAdoptTruncatesOverPersistedSamples(t *testing.T) {
	dir := t.TempDir()
	spec := fakeSpec(7, 5)
	writeRecord(t, dir, View{
		Record: Record{
			ID: "j000001", Spec: spec, State: StateRunning,
			SubmittedAt: time.Now().UTC(), StartedAt: time.Now().UTC(),
			Metrics: Metrics{StepsDone: 4},
		},
		Samples: []observe.Sample{{Step: 1}, {Step: 2}, {Step: 3}, {Step: 4}},
	})
	roll := &checkpoint.Rolling{Base: filepath.Join(dir, "j000001.ckp")}
	if err := roll.Save(&checkpoint.State{
		Step: 2, NBands: 1, NG: 2, Natom: 1, Ecut: spec.Ecut,
		Psi: []complex128{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
	f := &fakeSim{}
	s, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	defer s.Drain()
	got := waitState(t, s, "j000001", StateDone)
	if got.Metrics.StepsDone != 5 {
		t.Errorf("steps_done %d, want 5", got.Metrics.StepsDone)
	}
	steps := make([]int, 0, len(got.Samples))
	for _, smp := range got.Samples {
		steps = append(steps, smp.Step)
	}
	if len(steps) != 5 {
		t.Fatalf("feed has samples %v, want exactly 1..5", steps)
	}
	for i, st := range steps {
		if st != i+1 {
			t.Fatalf("feed has samples %v, want 1..5 with no duplicate from the over-persisted record", steps)
		}
	}
}

// TestPoolAdoptQuarantinesCorruptRecord: one torn record file (a crash
// mid-write) is logged and skipped; it must not refuse startup for the
// whole directory, and the healthy records are still adopted.
func TestPoolAdoptQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j000001.json"), []byte(`{"id":"j0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeRecord(t, dir, View{
		Record: Record{
			ID: "j000002", Spec: fakeSpec(2, 1), State: StateDone,
			SubmittedAt: time.Now().UTC(), FinishedAt: time.Now().UTC(),
		},
	})
	f := &fakeSim{}
	s, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatalf("corrupt record refused the whole directory: %v", err)
	}
	if _, ok := s.Get("j000002"); !ok {
		t.Error("healthy record not adopted alongside the corrupt one")
	}
	if _, ok := s.Get("j000001"); ok {
		t.Error("corrupt record adopted as a job")
	}
	s.start()
	s.Drain()
}

// TestPoolAdoptKeepsQuarantinedID: a quarantined record still holds its
// ID. With the highest record corrupt, the next submission takes the
// number after it, and the corrupt file is left as it was (not
// overwritten by a new job sharing its name and checkpoint sequence).
func TestPoolAdoptKeepsQuarantinedID(t *testing.T) {
	dir := t.TempDir()
	writeRecord(t, dir, View{
		Record: Record{
			ID: "j000001", Spec: fakeSpec(1, 1), State: StateDone,
			SubmittedAt: time.Now().UTC(), FinishedAt: time.Now().UTC(),
		},
	})
	corrupt := filepath.Join(dir, "j000005.json")
	torn := []byte(`{"id":"j000005","spec":{"cel`)
	if err := os.WriteFile(corrupt, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f := &fakeSim{}
	s, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	v, err := s.Submit(fakeSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j000006" {
		t.Errorf("first submission after a quarantined j000005 got ID %s, want j000006", v.ID)
	}
	waitState(t, s, v.ID, StateDone)
	s.Drain()
	if got, err := os.ReadFile(corrupt); err != nil || string(got) != string(torn) {
		t.Errorf("quarantined record changed: %q (%v), want %q", got, err, torn)
	}
}

// TestPoolRestartAdoption: a drained server's directory re-queues its
// interrupted jobs on the next start, resuming from the checkpoint, and
// re-registers terminal jobs as history.
func TestPoolRestartAdoption(t *testing.T) {
	dir := t.TempDir()
	f := &fakeSim{gate: make(chan struct{})}
	a, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	a.start()
	finished, err := a.Submit(fakeSpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.gate <- struct{}{}
	waitState(t, a, finished.ID, StateDone)
	interrupted, err := a.Submit(fakeSpec(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, interrupted.ID, StateRunning)
	f.gate <- struct{}{}
	f.gate <- struct{}{} // two of five steps
	queued, err := a.Submit(fakeSpec(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	a.Drain()

	// A new server on the same directory finishes the work.
	g := &fakeSim{}
	b, err := newServer(Config{Workers: 1, Dir: dir}, g.run, g.solve)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Get(finished.ID); !ok || v.State != StateDone {
		t.Fatalf("terminal job not adopted as history: %+v", v)
	}
	b.start()
	defer b.Drain()
	got := waitState(t, b, interrupted.ID, StateDone)
	if got.Metrics.StepsDone != 5 {
		t.Errorf("adopted job completed %d steps, want 5", got.Metrics.StepsDone)
	}
	if got.Metrics.Resumes < 1 {
		t.Errorf("adopted job counts %d resumes, want >= 1", got.Metrics.Resumes)
	}
	waitState(t, b, queued.ID, StateDone)
	// The resumed attempt started from the drained checkpoint (step 2),
	// not from scratch: its segment had 3 steps left.
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, smp := range got.Samples {
		if smp.Step > 5 {
			t.Fatalf("resumed job overran the trajectory: step %d", smp.Step)
		}
	}
	// New submissions on server B continue the ID sequence.
	nv, err := b.Submit(fakeSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID <= queued.ID {
		t.Errorf("new ID %s does not continue the sequence after %s", nv.ID, queued.ID)
	}
}

// TestPoolAdoptLegacyPreemptedRecord: an older daemon drained a running job
// to a "preempted" record beside its checkpoint. The state is gone, but
// such a record is still interrupted work: it adopts as queued and resumes
// from the checkpoint to done.
func TestPoolAdoptLegacyPreemptedRecord(t *testing.T) {
	dir := t.TempDir()
	spec := fakeSpec(1, 5)
	writeRecord(t, dir, View{
		Record: Record{
			ID: "j000001", Spec: spec, State: "preempted",
			SubmittedAt: time.Now().UTC(), StartedAt: time.Now().UTC(),
			Metrics: Metrics{StepsDone: 2, Preemptions: 1},
		},
		Samples: []observe.Sample{{Step: 1}, {Step: 2}},
	})
	roll := &checkpoint.Rolling{Base: filepath.Join(dir, "j000001.ckp")}
	if err := roll.Save(&checkpoint.State{
		Step: 2, NBands: 1, NG: 2, Natom: 1, Ecut: spec.Ecut,
		Psi: []complex128{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
	f := &fakeSim{}
	s, err := newServer(Config{Workers: 1, Dir: dir}, f.run, f.solve)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("j000001"); v.State != StateQueued {
		t.Fatalf("legacy preempted record adopted as %s, want %s", v.State, StateQueued)
	}
	s.start()
	defer s.Drain()
	got := waitState(t, s, "j000001", StateDone)
	if got.Metrics.StepsDone != 5 || got.Metrics.Resumes != 1 || got.Metrics.Preemptions != 1 {
		t.Errorf("metrics %+v, want 5 steps, 1 resume, 1 preemption", got.Metrics)
	}
	if len(got.Samples) != 5 {
		t.Errorf("feed has %d samples, want 5", len(got.Samples))
	}
}
