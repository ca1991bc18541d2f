package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// A set is every workload run some number of times, each run a fresh
// process, end-to-end and per-layer: the unit `-compare` works on and the
// form the baseline is recorded in.
type set struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []*result   `json:"runs"`
}

type allConfig struct {
	runs    int
	seed    int64
	seconds float64
	procs   int
	smoke   bool
	golden  string
	tmp     string
	out     string
}

// runAll runs every workload cfg.runs times per kind as child processes of
// this binary, round-robin across workloads (A B C D A B C D ...), so a
// noisy minute costs one run of each workload, not every run of one. Run i
// uses seed cfg.seed+i.
func runAll(stdout, stderr io.Writer, cfg allConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "bench-set-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := set{Fingerprint: readFingerprint()}
	failed := 0
	for i := 0; i < cfg.runs; i++ {
		for _, traced := range []int{0, 1} {
			for _, w := range workloads {
				outFile := filepath.Join(dir, "run.json")
				args := []string{
					"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced),
					"-procs", strconv.Itoa(cfg.procs), "-out", outFile, "-tmp", dir,
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				if cfg.golden != "" {
					args = append(args, "-golden", cfg.golden)
				}
				os.Remove(outFile)
				cmd := exec.Command(self, args...)
				cmd.Stdout = stdout
				cmd.Stderr = stderr
				runErr := cmd.Run()
				var r result
				data, err := os.ReadFile(outFile)
				if err == nil {
					err = json.Unmarshal(data, &r)
				}
				if err != nil {
					return fmt.Errorf("%s run %d trace %d produced no result (%v): %w", w.Name, i, traced, runErr, err)
				}
				if !r.Correct {
					failed++
				}
				s.Runs = append(s.Runs, &r)
			}
		}
	}
	summarize(stdout, &s)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, &s); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs had failed operations", failed)
	}
	return nil
}

// values collects one metric of one workload across a set's runs.
func (s *set) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func (s *set) noisyRuns(workload string) (noisy, total int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			total++
			if r.Noisy {
				noisy++
			}
		}
	}
	return noisy, total
}

// summarize prints, per workload, each metric's median over the runs and -
// for end-to-end metrics - the quartile spread beside its bound.
func summarize(w io.Writer, s *set) {
	for _, wl := range workloads {
		noisy, total := s.noisyRuns(wl.Name)
		fmt.Fprintf(w, "\n== %s: %d runs, %d flagged noisy\n", wl.Name, total, noisy)
		for _, m := range endToEnd {
			vs := s.values(wl.Name, m.Name)
			if len(vs) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-34s %14.6g %-8s n=%d spread %.3f (bound %.2f)\n", m.Name, median(vs), m.Unit, len(vs), quartileSpread(vs), m.Bound)
		}
		for _, m := range perLayer {
			vs := s.values(wl.Name, m.Name)
			if len(vs) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-34s %14.6g %-8s n=%d\n", m.Name, median(vs), m.Unit, len(vs))
		}
	}
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &s, nil
}

// exactCounts are computed by the program, so two runs of one workload on
// one seed must agree on them: iterations to 1%, communication counts
// exactly. Across seeds they differ by a few percent (another starting
// guess leaves the ground state in another gauge, which costs or saves an
// SCF iteration here and there), so they are compared seed by seed.
var exactCounts = map[string]float64{
	"core.scf_iters_per_step":      0.01,
	"mpi.bcast_bytes_per_step":     0,
	"mpi.alltoallv_bytes_per_step": 0,
	"mpi.allreduce_bytes_per_step": 0,
	"mpi.calls_per_step":           0,
}

// bySeed is one metric of one workload keyed by the run's seed.
func (s *set) bySeed(workload, metric string) map[int64]float64 {
	vs := map[int64]float64{}
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs[r.Seed] = v.Value
		}
	}
	return vs
}

// countChanges returns how many seeds both sets ran and on which of them
// the count differs by more than tol of A's value.
func countChanges(a, b *set, workload, metric string, tol float64) (common int, changed []int64) {
	vb := b.bySeed(workload, metric)
	for seed, x := range a.bySeed(workload, metric) {
		y, ok := vb[seed]
		if !ok {
			continue
		}
		common++
		if math.Abs(y-x) > tol*math.Abs(x) {
			changed = append(changed, seed)
		}
	}
	slices.Sort(changed)
	return common, changed
}

// compareSets prints B against A: per workload and metric the two medians,
// the ratio with its base, and a mark on every end-to-end row that is
// worse than its bound allows or whose own spread exceeds it, and on every
// count that differs on a seed both sets ran. Timings
// taken under different fingerprints are not comparable; it says so and
// refuses.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	fmt.Fprintf(w, "A %s: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, %s\n", pathA, fa.CPU, fa.NProc, fa.GOMAXPROCS, fa.GoVersion, fa.Commit, fa.Timestamp)
	fmt.Fprintf(w, "B %s: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, %s\n", pathB, fb.CPU, fb.NProc, fb.GOMAXPROCS, fb.GoVersion, fb.Commit, fb.Timestamp)
	if !fa.comparable(fb) {
		return fmt.Errorf("WARNING: the two sets were taken on different machines or toolchains (CPU, cores, GOMAXPROCS or Go version differ); their timings cannot be compared")
	}
	beyond := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n== %s\n", wl.Name)
		fmt.Fprintf(w, "%-34s %12s %12s %-8s %s\n", "metric", "A median", "B median", "unit", "B/A")
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = fmt.Sprintf("  << WORSE by %.1f%%, bound %.0f%%", worse*100, m.Bound*100)
				beyond++
			}
			if sa, sb := quartileSpread(va), quartileSpread(vb); math.Max(sa, sb) > m.Bound {
				mark += fmt.Sprintf("  << UNRESOLVED: spread A %.3f B %.3f exceeds bound %.2f", sa, sb, m.Bound)
			}
			fmt.Fprintf(w, "%-34s %12.6g %12.6g %-8s %.3f of %.6g (n=%d,%d)%s\n", m.Name, ma, mb, m.Unit, mb/ma, ma, len(va), len(vb), mark)
		}
		for _, m := range perLayer {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 {
				continue // a layer this workload does not exercise
			}
			mark := ""
			// A job's iterations depend on which jobs the loop had time for.
			if tol, ok := exactCounts[m.Name]; ok && !wl.Jobs {
				switch common, changed := countChanges(a, b, wl.Name, m.Name, tol); {
				case common == 0:
					mark = "  (no seed in common: count not checked)"
				case len(changed) > 0:
					mark = fmt.Sprintf("  << COUNT CHANGED on seeds %v of %d in common", changed, common)
					beyond++
				default:
					mark = fmt.Sprintf("  (equal on %d seeds)", common)
				}
			}
			fmt.Fprintf(w, "%-34s %12.6g %12.6g %-8s %.3f of %.6g%s\n", m.Name, ma, mb, m.Unit, mb/ma, ma, mark)
		}
	}
	fmt.Fprintf(w, "\n%d rows beyond their bound\n", beyond)
	return nil
}
