package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptdft/internal/checkpoint"
	"ptdft/internal/sim"
	"ptdft/internal/units"
)

// testConfig returns a minimal serial PT-CN run configuration (tiny cell,
// low cutoff) with the runtime wiring a test can drive.
func testConfig(t *testing.T) *config {
	t.Helper()
	return &config{
		spec: sim.Spec{
			Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
			DtAs: 24, Steps: 6, Kick: 0.02, Seed: 1234,
		},
		quiet: true,
		stop:  make(chan struct{}),
	}
}

// TestCkptEveryWritesRollingSequence: -ckptevery N lands durable step
// files on the cadence, the final state rides the same rolling sequence,
// and the stable -save path resolves to the newest checkpoint.
func TestCkptEveryWritesRollingSequence(t *testing.T) {
	cfg := testConfig(t)
	cfg.savePath = filepath.Join(t.TempDir(), "traj.ckp")
	cfg.ckptEvery = 2
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	// Cadence 2 over 6 steps: periodic saves at 2 and 4, final at 6; the
	// default retention keeps the newest two.
	for _, want := range []struct {
		step   int64
		exists bool
	}{{2, false}, {4, true}, {6, true}} {
		name := fmt.Sprintf("%s.step%010d", cfg.savePath, want.step)
		_, err := os.Stat(name)
		if got := err == nil; got != want.exists {
			t.Errorf("step-%d file exists=%v, want %v", want.step, got, want.exists)
		}
	}
	st, err := checkpoint.LoadFile(cfg.savePath)
	if err != nil {
		t.Fatalf("stable path does not load: %v", err)
	}
	if st.Step != 6 {
		t.Errorf("stable path resolves to step %d, want 6", st.Step)
	}
}

// TestStopWritesFinalCheckpoint: a shutdown request mid-run (the SIGINT/
// SIGTERM path, driven through the same stop channel the signal handler
// closes) finishes the step in flight and checkpoints the steps that
// actually ran - not the requested count.
func TestStopWritesFinalCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.spec.Steps = 10
	cfg.savePath = filepath.Join(t.TempDir(), "stop.ckp")
	cfg.afterStep = func(done int) {
		if done == 3 {
			close(cfg.stop)
		}
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadFile(cfg.savePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 3 {
		t.Errorf("checkpoint at step %d, want 3 (the completed steps)", st.Step)
	}
	wantT := 3 * units.AttosecondsToAU(cfg.spec.DtAs)
	if d := st.Time - wantT; d > 1e-12 || d < -1e-12 {
		t.Errorf("checkpoint time %g, want %g", st.Time, wantT)
	}
}

// TestStopDistributedIsSymmetric: in a distributed run only rank 0 sees
// the stop flag; the per-step vote must stop every rank together and the
// final checkpoint again reflects the completed steps.
func TestStopDistributedIsSymmetric(t *testing.T) {
	cfg := testConfig(t)
	cfg.spec.Steps = 6
	cfg.spec.Ranks = 2
	cfg.savePath = filepath.Join(t.TempDir(), "dstop.ckp")
	cfg.ckptEvery = 2
	cfg.afterStep = func(done int) {
		if done == 3 {
			close(cfg.stop)
		}
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadFile(cfg.savePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 3 {
		t.Errorf("checkpoint at step %d, want 3", st.Step)
	}
}

// parseArgs runs parseFlags over args on a fresh flag set and returns the
// set it registered its flags on.
func parseArgs(args ...string) (*flag.FlagSet, error) {
	oldCmd, oldArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = oldCmd, oldArgs }()
	fs := flag.NewFlagSet("ptdft", flag.ContinueOnError)
	flag.CommandLine = fs
	os.Args = append([]string{"ptdft"}, args...)
	_, err := parseFlags()
	return fs, err
}

// TestRemovedFlagsAreUnknown: -acehold (the alias of -ace -mts 1),
// -stealchunk, -exchange (overlap is the one schedule) and -singleprec (the
// wire is double precision) are not registered, and the cadence the alias
// named is accepted under its one remaining spelling.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	fs, err := parseArgs("-hybrid", "-ace", "-mts", "1")
	if err != nil {
		t.Fatalf("-hybrid -ace -mts 1 rejected: %v", err)
	}
	for _, name := range []string{"acehold", "stealchunk", "exchange", "singleprec"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s is still a flag", name)
		}
	}
}

// TestCkptEveryFlagValidation drives parseFlags (on a fresh flag set) to
// pin the -ckptevery gate: a cadence needs -save, and negative cadences
// are rejected.
func TestCkptEveryFlagValidation(t *testing.T) {
	parse := func(args ...string) error {
		_, err := parseArgs(args...)
		return err
	}
	if err := parse("-ckptevery", "2"); err == nil || !strings.Contains(err.Error(), "-save") {
		t.Errorf("-ckptevery without -save not rejected: %v", err)
	}
	if err := parse("-ckptevery", "-1", "-save", "x.ckp"); err == nil {
		t.Error("negative -ckptevery not rejected")
	}
	if err := parse("-ckptevery", "2", "-save", "x.ckp"); err != nil {
		t.Errorf("valid -ckptevery rejected: %v", err)
	}
}
