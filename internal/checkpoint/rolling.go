// Rolling checkpoints: a sequence of durable step-stamped files behind a
// stable "last-good" symlink, so a crash at ANY instant - including mid
// checkpoint write - leaves a complete, checksummed state reachable under
// one well-known name. The propagation loop of internal/sim writes through
// this on its -ckptevery cadence, and its rank-failure recovery and the job
// server's restart adoption read the newest good state back.
package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Rolling manages the rolling checkpoint sequence rooted at Base:
//
//	<Base>.step0000000012   one durable checkpoint per saved step
//	<Base>                  symlink to the newest complete checkpoint
//
// Save appends a new step file with SaveFile's fsync-before-rename
// discipline, then atomically retargets the symlink, then prunes old
// step files beyond Keep. The symlink is only ever moved AFTER its new
// target is fully durable, and pruning spares the last Keep files, so
// the previous checkpoint survives until a newer one is complete.
type Rolling struct {
	Base string
	Keep int // completed checkpoints to retain; <= 0 means 2
}

func (rl *Rolling) keep() int {
	if rl.Keep <= 0 {
		return 2
	}
	return rl.Keep
}

func (rl *Rolling) stepPath(step int64) string {
	return fmt.Sprintf("%s.step%010d", rl.Base, step)
}

// Save durably writes s as the newest checkpoint of the sequence and
// retargets the last-good symlink at it.
func (rl *Rolling) Save(s *State) error {
	name := rl.stepPath(s.Step)
	if err := SaveFile(name, s); err != nil {
		return err
	}
	// Retarget <Base> atomically: build the new symlink under a side name
	// and rename it over the old one (symlinks cannot be repointed in
	// place). The target is relative so the directory stays relocatable.
	tmp := name + ".lnk"
	os.Remove(tmp)
	if err := os.Symlink(filepath.Base(name), tmp); err != nil {
		return fmt.Errorf("checkpoint: rolling link: %w", err)
	}
	if err := os.Rename(tmp, rl.Base); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rolling link: %w", err)
	}
	syncDir(filepath.Dir(rl.Base))
	rl.prune()
	return nil
}

// prune removes step files beyond the retention count, oldest first.
// Best-effort: a failed remove never fails a save.
func (rl *Rolling) prune() {
	files := rl.stepFiles()
	for i := 0; i+rl.keep() < len(files); i++ {
		os.Remove(files[i])
	}
}

// stepFiles lists the sequence's step files sorted oldest to newest (the
// zero-padded step stamp makes lexical order numeric order).
func (rl *Rolling) stepFiles() []string {
	matches, _ := filepath.Glob(rl.Base + ".step*")
	var files []string
	for _, m := range matches {
		if filepath.Ext(m) == ".lnk" {
			continue
		}
		files = append(files, m)
	}
	sort.Strings(files)
	return files
}

// Clean removes every file of the sequence: the step files and the
// last-good symlink. The job server calls this when a job's trajectory is
// complete and its result recorded - the checkpoints were only ever crash
// insurance. Best-effort: missing files are not errors.
func (rl *Rolling) Clean() {
	for _, f := range rl.stepFiles() {
		os.Remove(f)
	}
	os.Remove(rl.Base)
}

// Latest loads the newest good checkpoint of the sequence, returning the
// state and the path it came from. The last-good symlink is tried first;
// if it dangles or its target fails verification (a torn or corrupted
// file), the step files are scanned newest first and the first one that
// loads cleanly wins. Only when no file of the sequence is loadable does
// Latest return an error (wrapping os.ErrNotExist when the sequence is
// empty).
func (rl *Rolling) Latest() (*State, string, error) {
	var firstErr error
	if target, err := os.Readlink(rl.Base); err == nil {
		p := target
		if !filepath.IsAbs(p) {
			p = filepath.Join(filepath.Dir(rl.Base), target)
		}
		if s, err := LoadFile(p); err == nil {
			return s, p, nil
		} else {
			firstErr = err
		}
	} else if s, err := LoadFile(rl.Base); err == nil {
		// Base may be a plain checkpoint file from a pre-rolling run.
		return s, rl.Base, nil
	}
	files := rl.stepFiles()
	for i := len(files) - 1; i >= 0; i-- {
		s, err := LoadFile(files[i])
		if err == nil {
			return s, files[i], nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, "", fmt.Errorf("checkpoint: no loadable checkpoint under %s (newest damage: %w)", rl.Base, firstErr)
	}
	return nil, "", fmt.Errorf("checkpoint: no checkpoint under %s: %w", rl.Base, os.ErrNotExist)
}
