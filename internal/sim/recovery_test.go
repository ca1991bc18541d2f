package sim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/mpi"
	"ptdft/internal/observe"
	"ptdft/internal/potential"
	"ptdft/internal/scf"
	"ptdft/internal/wavefunc"
)

// crashOnce is the usual injection: the first launch loses the rank of cr
// (at a step boundary, or inside its AfterCalls-th communication call),
// every relaunch runs clean.
func crashOnce(cr mpi.CrashRankAt) func(int) []mpi.CrashRankAt {
	return func(attempt int) []mpi.CrashRankAt {
		if attempt > 0 {
			return nil
		}
		return []mpi.CrashRankAt{cr}
	}
}

// stepFiles lists the rolling sequence's step files by base name.
func stepFiles(t *testing.T, roll *checkpoint.Rolling) []string {
	t.Helper()
	matches, err := filepath.Glob(roll.Base + ".step*")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range matches {
		matches[i] = filepath.Base(m)
	}
	return matches
}

// TestRunRecovery: a distributed run that loses ranks is relaunched from
// its newest rolling checkpoint and finishes as the crash-free run of the
// same spec from the same ground state - samples, final orbitals, density,
// ion state, drift and the checkpoint files it leaves - while the live feed
// sees every step exactly once, in order. Rank failures are retried up to
// the budget; the rows cover a crash at a step boundary and inside a
// collective, MD, RK4, a segment that starts mid MTS cycle, replay with no
// checkpoint to fall back on, a corrupt newest checkpoint, and a crash of
// each rank of a hybrid ACE MTS run at a seeded fuzzed step.
func TestRunRecovery(t *testing.T) {
	lda := func(ranks int) func(*Spec) { return func(s *Spec) { s.Ranks = ranks } }
	aceMTS2 := func(s *Spec) { s.Ranks, s.Hybrid, s.ACE, s.MTS, s.Exchange = 4, true, true, 2, "overlap" }
	type row struct {
		runCase
		total, every int // steps this run propagates, checkpoint cadence
		prior        int // steps of an earlier segment the run resumes from (0: fresh)
		noCkpt       bool
		corruptAt    int // after this step, damage the newest checkpoint file (0: never)
		crashes      func(attempt int) []mpi.CrashRankAt
		restarts     int
		lost         int    // -1: not pinned (the crash is not step-aligned)
		failure      string // substring of the one failure line
		wantErr      string // the run must fail with this instead
	}
	rows := []row{
		{runCase: runCase{"clean", lda(2)}, total: 4, every: 2},
		// The crash arrives before step index 3: three steps completed, the
		// cadence-2 checkpoint holds step 2, so exactly one step is re-run.
		{runCase: runCase{"step crash", lda(4)}, total: 6, every: 2,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 2, AfterStep: 3}),
			restarts: 1, lost: 1, failure: "rank 2 crashed"},
		// A call-count trigger leaves the peers inside Allreduce/Alltoallv
		// waits; the crashed rank's exit must unblock them.
		{runCase: runCase{"mid-collective crash", lda(4)}, total: 4, every: 1,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 1, AfterCalls: 200}),
			restarts: 1, lost: -1, failure: "rank 1 crashed"},
		{runCase: runCase{"no checkpoint replay", lda(2)}, total: 5, noCkpt: true,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 1, AfterStep: 3}),
			restarts: 1, lost: 3, failure: "rank 1 crashed"},
		// Steps 2 and 4 are on disk when the crash lands before step index 5;
		// step 4 is damaged, so recovery falls back to step 2.
		{runCase: runCase{"corrupt newest checkpoint", lda(2)}, total: 6, every: 2, corruptAt: 5,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 1, AfterStep: 5}),
			restarts: 1, lost: 3, failure: "rank 1 crashed"},
		{runCase: runCase{"MD", func(s *Spec) { s.Ranks = 2; withMD(2)(s) }}, total: 4, every: 2,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 1, AfterStep: 3}),
			restarts: 1, lost: 1, failure: "rank 1 crashed"},
		// The segment resumes at step 3, phase 1 of the M = 2 cycle, and the
		// checkpoint it recovers from (two steps in: step 5) is mid-cycle too.
		{runCase: runCase{"mid-cycle start", aceMTS2}, total: 4, every: 2, prior: 3,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 3, AfterStep: 6}),
			restarts: 1, lost: 1, failure: "rank 3 crashed"},
		// RK4 runs in the same world: the relaunch from the step-18
		// checkpoint crosses the re-orthonormalization of step 20 on the
		// trajectory's cadence.
		{runCase: runCase{"RK4", func(s *Spec) { s.Ranks, s.Method, s.DtAs = 2, "rk4", 0.5 }}, total: 22, every: 6,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: 1, AfterStep: 21}),
			restarts: 1, lost: 3, failure: "rank 1 crashed"},
		{runCase: runCase{"retry budget", lda(2)}, total: 4, every: 2,
			crashes: func(int) []mpi.CrashRankAt { return []mpi.CrashRankAt{{Rank: 0, AfterStep: 1}} },
			wantErr: "giving up after 3 restarts; last failure: mpi: rank 0 crashed"},
	}
	// The acceptance sweep: each rank of the hybrid ACE MTS 2 run dies once,
	// at a fuzzed step that is deterministic per victim so failures reproduce
	// (steps 3, 4, 2, 1). Cadence 3 puts the checkpoints of steps 3 and 6 mid
	// cycle: two victims recover from a frozen-reference state, two replay.
	victims := []int{0, 1, 2, 3}
	if testing.Short() {
		victims = []int{2}
	}
	for _, victim := range victims {
		const total = 8
		at := 1 + rand.New(rand.NewSource(int64(2026+victim))).Int63n(total-1)
		rows = append(rows, row{runCase: runCase{fmt.Sprintf("ACE MTS2 rank %d at step %d", victim, at), aceMTS2},
			total: total, every: 3,
			crashes:  crashOnce(mpi.CrashRankAt{Rank: victim, AfterStep: at}),
			restarts: 1, lost: int(at % 3), failure: fmt.Sprintf("rank %d crashed", victim)})
	}

	grounds := map[string]*scf.Result{} // one SCF per functional, shared by its rows
	// The crash-free run of a spec is shared by the rows that crash it
	// differently; its checkpoints live as long as the whole table.
	type cleanRun struct {
		res  *Result
		roll *checkpoint.Rolling
	}
	cleans := map[string]cleanRun{}
	top := t
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			// The trajectory covers the earlier segment and this one.
			spec := testSpec()
			tc.mod(&spec)
			setLen(&spec, tc.prior+tc.total)
			key, err := spec.SCFKey()
			if err != nil {
				t.Fatal(err)
			}
			if grounds[key] == nil {
				if grounds[key], err = GroundState(&spec); err != nil {
					t.Fatal(err)
				}
			}
			opt := Options{Ground: grounds[key]}
			if tc.prior > 0 {
				head, headOpt := spec, stopAfter(tc.prior)
				headOpt.Ground = opt.Ground
				seg, err := Run(&head, headOpt)
				if err != nil {
					t.Fatal(err)
				}
				if spec.MTS > 0 && seg.Final.MTSPhase == 0 {
					t.Fatal("the earlier segment ended on a cycle boundary; the row is meant to start mid-cycle")
				}
				opt.Resume = seg.Final
			}
			// One rolling sequence per run, each in a directory of its own.
			rolling := func(t *testing.T, o *Options) {
				if !tc.noCkpt {
					o.Ckpt, o.CkptEvery = &checkpoint.Rolling{Base: filepath.Join(t.TempDir(), "ck"), Keep: tc.total}, tc.every
				}
			}

			cleanKey := fmt.Sprint(spec, tc.every, tc.prior, tc.noCkpt)
			clean, ok := cleans[cleanKey]
			if !ok {
				cleanOpt, cleanSpec := opt, spec
				rolling(top, &cleanOpt)
				if clean.res, err = Run(&cleanSpec, cleanOpt); err != nil {
					t.Fatal(err)
				}
				clean.roll = cleanOpt.Ckpt
				cleans[cleanKey] = clean
			}
			want := clean.res

			var streamed, after []int
			opt.Crashes = tc.crashes
			opt.OnSample = func(s observe.Sample) { streamed = append(streamed, s.Step) }
			opt.AfterStep = func(done int) {
				after = append(after, done)
				if done == tc.corruptAt {
					damageNewest(t, opt.Ckpt)
				}
			}
			rolling(t, &opt)
			start := time.Now()
			got, err := Run(&spec, opt)
			if elapsed := time.Since(start); elapsed > time.Minute {
				t.Fatalf("the run took %v - a survivor hung on a crashed peer", elapsed)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				if got != nil {
					t.Error("a run that gave up returned a result")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}

			if got.Restarts != tc.restarts || len(got.Failures) != tc.restarts {
				t.Errorf("restarts %d with failures %v, want %d", got.Restarts, got.Failures, tc.restarts)
			}
			if tc.lost >= 0 && got.LostSteps != tc.lost {
				t.Errorf("lost steps %d, want %d", got.LostSteps, tc.lost)
			}
			if tc.failure != "" && (len(got.Failures) == 0 || !strings.Contains(got.Failures[0], tc.failure)) {
				t.Errorf("failures %v do not mention %q", got.Failures, tc.failure)
			}

			// The live feed: every step of the segment once, strictly
			// increasing, whatever was replayed underneath.
			var wantStreamed, wantAfter []int
			for i := 1; i <= tc.total; i++ {
				wantStreamed, wantAfter = append(wantStreamed, tc.prior+i), append(wantAfter, i)
			}
			if !reflect.DeepEqual(streamed, wantStreamed) || !reflect.DeepEqual(after, wantAfter) {
				t.Errorf("streamed steps %v and AfterStep calls %v, want %v and %v", streamed, after, wantStreamed, wantAfter)
			}

			if len(got.Samples) != len(want.Samples) {
				t.Fatalf("%d samples, the crash-free run has %d", len(got.Samples), len(want.Samples))
			}
			for i, a := range want.Samples {
				b := got.Samples[i]
				if a.Step != b.Step || a.SCFIters != b.SCFIters {
					t.Errorf("sample %d: step/SCF %d/%d crash-free, %d/%d recovered", i, a.Step, a.SCFIters, b.Step, b.SCFIters)
				}
				for what, d := range map[string]float64{
					"time": a.TimeFs - b.TimeFs, "energy": a.Energy - b.Energy,
					"current": a.CurrentZ - b.CurrentZ, "excited": a.Excited - b.Excited,
				} {
					if math.Abs(d) > 1e-10 {
						t.Errorf("sample %d: %s differs by %g from the crash-free run, want <= 1e-10", i, what, d)
					}
				}
			}
			a, b := want.Final, got.Final
			if a.Step != b.Step || a.MTSPhase != b.MTSPhase || a.IonSteps != b.IonSteps {
				t.Errorf("final step/phase/ion steps %d/%d/%d, crash-free %d/%d/%d", b.Step, b.MTSPhase, b.IonSteps, a.Step, a.MTSPhase, a.IonSteps)
			}
			if d := wavefunc.MaxDiff(a.Psi, b.Psi); d > 1e-10 {
				t.Errorf("orbitals differ from the crash-free run by %g, want <= 1e-10", d)
			}
			_, g, nb, err := spec.System()
			if err != nil {
				t.Fatal(err)
			}
			rhoA, rhoB := potential.Density(g, a.Psi, nb, 2), potential.Density(g, b.Psi, nb, 2)
			if d := potential.DensityDiff(g, rhoA, rhoB, float64(2*nb)); d > 1e-10 {
				t.Errorf("density differs from the crash-free run by %g, want <= 1e-10", d)
			}
			if spec.MD {
				for what, d := range map[string]float64{
					"positions": maxDiff3(a.IonPos, b.IonPos), "velocities": maxDiff3(a.IonVel, b.IonVel),
					"forces": maxDiff3(a.IonForce, b.IonForce), "drift": got.EhrenfestDrift - want.EhrenfestDrift,
				} {
					if math.Abs(d) > 1e-10 {
						t.Errorf("ion %s differ from the crash-free run by %g, want <= 1e-10", what, d)
					}
				}
			}

			if tc.noCkpt {
				return
			}
			// The final state is always checkpointed, and the recovered run
			// leaves the files the crash-free run leaves: the cadence is
			// anchored to the segment start, not to the relaunch.
			last, _, err := opt.Ckpt.Latest()
			if err != nil || last.Step != got.Final.Step {
				t.Errorf("newest checkpoint %+v (%v), want step %d", last, err, got.Final.Step)
			}
			if gotFiles, wantFiles := stepFiles(t, opt.Ckpt), stepFiles(t, clean.roll); !reflect.DeepEqual(gotFiles, wantFiles) {
				t.Errorf("recovered run left %v, crash-free run %v", gotFiles, wantFiles)
			}
		})
	}
}

// damageNewest flips one payload byte of the newest step file of the
// sequence, so it fails its section checksum on load.
func damageNewest(t *testing.T, roll *checkpoint.Rolling) {
	t.Helper()
	files := stepFiles(t, roll)
	name := filepath.Join(filepath.Dir(roll.Base), files[len(files)-1])
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
