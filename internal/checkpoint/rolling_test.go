package checkpoint

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestRollingSaveLatestAndPrune: successive saves advance the sequence,
// Latest returns the newest, and pruning retains exactly Keep step files.
func TestRollingSaveLatestAndPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := filepath.Join(t.TempDir(), "traj.ckp")
	rl := &Rolling{Base: base, Keep: 2}
	for _, step := range []int64{2, 4, 6} {
		s := sampleState(rng)
		s.Step = step
		if err := rl.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	got, path, err := rl.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 6 {
		t.Fatalf("Latest returned step %d, want 6", got.Step)
	}
	if filepath.Base(path) != "traj.ckp.step0000000006" {
		t.Errorf("Latest path %q does not name the newest step file", path)
	}
	files := rl.stepFiles()
	if len(files) != 2 {
		t.Fatalf("prune kept %d files %v, want 2", len(files), files)
	}
	if _, err := os.Stat(rl.stepPath(2)); !os.IsNotExist(err) {
		t.Error("oldest step file not pruned")
	}
}

// TestRollingReusedBase: a base that still holds a longer, earlier run's
// step files is taken over by the new run. Its first save drops the
// files stamped later than it (they belong to the other trajectory)
// instead of pruning itself as the oldest, so Latest is the state just
// saved.
func TestRollingReusedBase(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := filepath.Join(t.TempDir(), "traj.ckp")
	old := &Rolling{Base: base}
	for _, step := range []int64{90, 100} {
		s := sampleState(rng)
		s.Step = step
		if err := old.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	rl := &Rolling{Base: base}
	s := sampleState(rng)
	s.Step = 10
	if err := rl.Save(s); err != nil {
		t.Fatal(err)
	}
	got, path, err := rl.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 10 || path != rl.stepPath(10) {
		t.Errorf("Latest after saving step 10 over an old run: step %d from %q", got.Step, path)
	}
	if files := rl.stepFiles(); len(files) != 1 || files[0] != rl.stepPath(10) {
		t.Errorf("step files %v, want only the new run's step 10", files)
	}
}

// TestRollingIgnoresTempLeftovers: the temp file a killed save leaves
// behind is not a checkpoint. It takes no retention slot, so the Keep
// newest real checkpoints survive the next saves, and Clean removes it.
func TestRollingIgnoresTempLeftovers(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	base := filepath.Join(t.TempDir(), "traj.ckp")
	rl := &Rolling{Base: base, Keep: 2}
	save := func(step int64) {
		t.Helper()
		s := sampleState(rng)
		s.Step = step
		if err := rl.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	save(10)
	save(12)
	leftover := rl.stepPath(14) + ".tmp-123456"
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	save(16)
	for _, step := range []int64{12, 16} {
		if _, err := LoadFile(rl.stepPath(step)); err != nil {
			t.Errorf("checkpoint of step %d: %v", step, err)
		}
	}
	if files := rl.stepFiles(); len(files) != 2 {
		t.Errorf("step files %v, want the checkpoints of steps 12 and 16", files)
	}
	rl.Clean()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Error("Clean left the temp file of a killed save")
	}
}

// TestRollingSurvivesTornNewest: when the newest checkpoint is damaged
// (a torn write), Latest falls back to the previous good file instead of
// failing.
func TestRollingSurvivesTornNewest(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := filepath.Join(t.TempDir(), "traj.ckp")
	rl := &Rolling{Base: base, Keep: 3}
	for _, step := range []int64{5, 10} {
		s := sampleState(rng)
		s.Step = step
		if err := rl.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest step file in place.
	newest := rl.stepPath(10)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := rl.Latest()
	if err != nil {
		t.Fatalf("Latest failed despite a good older checkpoint: %v", err)
	}
	if got.Step != 5 {
		t.Fatalf("Latest returned step %d, want fallback to 5", got.Step)
	}
	if path != rl.stepPath(5) {
		t.Errorf("Latest path %q, want %q", path, rl.stepPath(5))
	}
}

// TestRollingBaseWithGlobMeta: a base path holding glob metacharacters
// names its own step files literally, so pruning, Latest and Clean find
// them.
func TestRollingBaseWithGlobMeta(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	base := filepath.Join(t.TempDir(), "run[1]*?.ckp")
	rl := &Rolling{Base: base, Keep: 2}
	for _, step := range []int64{2, 4, 6} {
		s := sampleState(rng)
		s.Step = step
		if err := rl.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if files := rl.stepFiles(); len(files) != 2 || files[1] != rl.stepPath(6) {
		t.Errorf("step files %v, want the checkpoints of steps 4 and 6", files)
	}
	if got, _, err := (&Rolling{Base: base}).Latest(); err != nil || got.Step != 6 {
		t.Errorf("Latest: %v (%v), want step 6", got, err)
	}
	rl.Clean()
	if left, _ := os.ReadDir(filepath.Dir(base)); len(left) != 0 {
		t.Errorf("Clean left %d files", len(left))
	}
}

// TestRollingEmptySequence: an empty sequence reports os.ErrNotExist so
// callers can distinguish "no checkpoint yet" from damage.
func TestRollingEmptySequence(t *testing.T) {
	rl := &Rolling{Base: filepath.Join(t.TempDir(), "traj.ckp")}
	_, _, err := rl.Latest()
	if err == nil {
		t.Fatal("Latest on empty sequence succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("error %v does not wrap os.ErrNotExist", err)
	}
}

// TestRollingAdoptsPlainFile: a plain checkpoint at the base path (from
// a pre-rolling run) is picked up by Latest.
func TestRollingAdoptsPlainFile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := filepath.Join(t.TempDir(), "traj.ckp")
	s := sampleState(rng)
	s.Step = 33
	if err := SaveFile(base, s); err != nil {
		t.Fatal(err)
	}
	rl := &Rolling{Base: base}
	got, path, err := rl.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 33 || path != base {
		t.Errorf("plain-file adoption: step %d path %q", got.Step, path)
	}
}

// TestRollingClean removes the whole sequence - its step files and any
// file at the base path - and leaves nothing for Latest to find.
func TestRollingClean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := filepath.Join(t.TempDir(), "job.ckp")
	rl := &Rolling{Base: base}
	for _, step := range []int64{1, 2} {
		s := sampleState(rng)
		s.Step = step
		if err := rl.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	rl.Clean()
	if files := rl.stepFiles(); len(files) != 0 {
		t.Errorf("Clean left step files %v", files)
	}
	if _, err := os.Lstat(base); !os.IsNotExist(err) {
		t.Error("Clean left a file at the base path")
	}
	if _, _, err := rl.Latest(); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Latest after Clean: %v, want ErrNotExist", err)
	}
	// Clean on an already-empty sequence is a no-op, not an error.
	rl.Clean()
}
