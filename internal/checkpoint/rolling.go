// Rolling checkpoints: a sequence of durable step-stamped files, so a crash
// at ANY instant - including mid checkpoint write - leaves a complete,
// checksummed state on disk. The sequence is its step files and nothing
// else: the newest one that verifies is the resume point. The propagation
// loop of internal/sim writes through this (every -ckptevery steps and at
// the end); ptdft -load and the job server's restart adoption read the
// newest good state back through Latest.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Rolling manages the rolling checkpoint sequence rooted at Base:
//
//	<Base>.step0000000012   one durable checkpoint per saved step
//
// Save writes a new step file with SaveFile's fsync-before-rename
// discipline, then prunes: step files stamped later than the saved step
// belong to another trajectory and go, and of the rest the Keep newest
// stay. The previous checkpoint therefore survives until a newer one is
// complete, and after any save the newest file that verifies is the one
// just saved.
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

// Save durably writes s as the newest checkpoint of the sequence, then
// prunes. Pruning is best-effort: a failed remove never fails a save.
func (rl *Rolling) Save(s *State) error {
	name := rl.stepPath(s.Step)
	if err := SaveFile(name, s); err != nil {
		return err
	}
	files := rl.stepFiles()
	for len(files) > 0 && files[len(files)-1] > name {
		os.Remove(files[len(files)-1])
		files = files[:len(files)-1]
	}
	for i := 0; i+rl.keep() < len(files); i++ {
		os.Remove(files[i])
	}
	return nil
}

// stepFiles lists the sequence's step files, oldest to newest: the files
// named Base + ".step" + ten digits, so never a killed save's temp file.
// The zero-padded step stamp makes name order numeric order.
func (rl *Rolling) stepFiles() []string {
	var files []string
	for _, stamp := range rl.stepSuffixes() {
		if len(stamp) == 10 && strings.Trim(stamp, "0123456789") == "" {
			files = append(files, rl.Base+".step"+stamp)
		}
	}
	return files
}

// stepSuffixes returns, in name order, what follows Base + ".step" in the
// file names of Base's directory. Names are compared as strings, not as
// glob patterns, so a Base holding '[', '*' or '?' finds its own files.
func (rl *Rolling) stepSuffixes() []string {
	entries, _ := os.ReadDir(filepath.Dir(rl.Base))
	prefix := filepath.Base(rl.Base) + ".step"
	var suffixes []string
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), prefix); ok {
			suffixes = append(suffixes, rest)
		}
	}
	return suffixes
}

// Clean removes every file of the sequence: the step files, the temp files
// of saves that never completed, and a plain file at Base. The job server
// calls this when a job's trajectory is complete and its result recorded -
// the checkpoints were only ever crash insurance. Best-effort: missing
// files are not errors.
func (rl *Rolling) Clean() {
	for _, rest := range rl.stepSuffixes() {
		os.Remove(rl.Base + ".step" + rest)
	}
	os.Remove(rl.Base)
}

// Latest loads the newest good checkpoint of the sequence, returning the
// state and the path it came from. The step files are scanned newest
// first and the first one that loads cleanly wins, so a torn or corrupted
// newest file falls back to the previous one. Without a loadable step
// file, a plain checkpoint at Base is read: a pre-rolling run's file, or a
// step file named explicitly. Only when nothing loads does Latest return
// an error (wrapping os.ErrNotExist when there is no file at all).
func (rl *Rolling) Latest() (*State, string, error) {
	files := rl.stepFiles()
	slices.Reverse(files)
	var firstErr error
	for _, p := range append(files, rl.Base) {
		s, err := LoadFile(p)
		if err == nil {
			return s, p, nil
		}
		if firstErr == nil && !errors.Is(err, os.ErrNotExist) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, "", fmt.Errorf("checkpoint: no loadable checkpoint under %s (newest damage: %w)", rl.Base, firstErr)
	}
	return nil, "", fmt.Errorf("checkpoint: no checkpoint under %s: %w", rl.Base, os.ErrNotExist)
}
