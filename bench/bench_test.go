package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptdft/internal/parallel"
)

// restoreProcs undoes the GOMAXPROCS / worker bound run() sets.
func restoreProcs(t *testing.T) {
	procs, workers := runtime.GOMAXPROCS(0), parallel.MaxWorkers()
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		parallel.SetMaxWorkers(workers)
	})
}

// lastLine is the benchmark's contract output: one JSON object, last.
type lastLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runBench(t *testing.T, args ...string) (code int, human string, last lastLine) {
	t.Helper()
	restoreProcs(t)
	var stdout, stderr bytes.Buffer
	code = run(append(args, "-tmp", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[len(lines)-1], "{") {
		return code, stdout.String(), last
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	return code, strings.Join(lines[:len(lines)-1], "\n"), last
}

// TestManifestMatchesTable pins BENCHMARK.json to the Go table, both ways
// and byte for byte, and checks the limits a manifest is refused for.
func TestManifestMatchesTable(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Errorf("BENCHMARK.json differs from the table; regenerate with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		checkName(e.Name)
		if !unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is out of limits", e)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup || len(m.EndToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s and at most 16 metrics, has %d", len(m.EndToEnd))
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, p := range m.PerLayer {
		checkName(p.Name)
		if !unit.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") || p.Bound != nil {
			t.Errorf("per-layer metric %+v is out of limits", p)
		}
	}
	for _, p := range perLayer {
		if p.Moves == "" || p.Src == "" {
			t.Errorf("per-layer metric %s does not say where it comes from or what it should move", p.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestSmoke runs every workload at smoke sizes, end to end and per layer,
// and checks the emitted metrics against the table.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, kind := range []struct {
			trace string
			names []metric
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w.Name+"/trace"+kind.trace, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "run.json")
				code, human, last := runBench(t, "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", kind.trace, "-smoke", "-out", out)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, human)
				}
				if last.Correct == nil || last.Attempted == nil || last.Failed == nil || last.Metrics == nil {
					t.Fatalf("the last line lacks one of correct, attempted, failed, metrics")
				}
				if !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", *last.Correct, *last.Attempted, *last.Failed, human)
				}
				if len(last.Metrics) != len(kind.names) {
					t.Errorf("%d metrics emitted, the table has %d", len(last.Metrics), len(kind.names))
				}
				for _, m := range kind.names {
					v, ok := last.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
						continue
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit || v.Unit == "" {
						t.Errorf("metric %s = %v %q, want a finite value in %q", m.Name, v.Value, v.Unit, m.Unit)
					}
					if kind.trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
					if n := strings.Count("\n"+human, "\n"+m.Name+" "); n != 1 {
						t.Errorf("metric %s printed %d times", m.Name, n)
					}
					unused := strings.HasPrefix(m.Name, "fock.") || strings.HasPrefix(m.Name, "dist.") || strings.HasPrefix(m.Name, "mpi.")
					if w.Name == wSemilocal && unused && v.Value != 0 {
						t.Errorf("%s = %v on %s, which does not use that layer", m.Name, v.Value, w.Name)
					}
				}
				var full result
				data, err := os.ReadFile(out)
				if err == nil {
					err = json.Unmarshal(data, &full)
				}
				if err != nil || full.Workload != w.Name || full.Fingerprint.GoVersion == "" || full.Fingerprint.GOMAXPROCS != 1 {
					t.Errorf("-out result unreadable or without fingerprint: %v %+v", err, full.Fingerprint)
				}
			})
		}
	}
}

// TestWrongGoldenFails proves the checks can fail: a golden energy that is
// off by 1e-3 Ha turns every step into a failed operation and the exit
// code non-zero.
func TestWrongGoldenFails(t *testing.T) {
	gold, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	key := goldenKey(wSemilocal, true)
	e := gold[key]
	e.EnergyHa += 1e-3
	gold[key] = e
	data, err := json.Marshal(goldenFile{Entries: gold})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, human, last := runBench(t, "-workload", wSemilocal, "-smoke", "-seconds", "0.5", "-golden", path)
	if code == 0 {
		t.Errorf("exit code 0 with a wrong golden energy\n%s", human)
	}
	if last.Correct != nil && (*last.Correct || *last.Failed == 0) {
		t.Errorf("correct %v, failed %d with a wrong golden energy", *last.Correct, *last.Failed)
	}
}

// TestGoldenHoldsAtTwoProcs: the references are gauge invariant, so they
// hold at any thread count although the orbitals do not repeat there.
func TestGoldenHoldsAtTwoProcs(t *testing.T) {
	code, human, _ := runBench(t, "-workload", wExact, "-smoke", "-seconds", "0.5", "-procs", "2")
	if code != 0 {
		t.Errorf("exit code %d at -procs 2\n%s", code, human)
	}
}

// TestCalibratorWindow: an interval's speed is the median reading from
// calibWindow before it to calibWindow after it, and the run's median when
// that window is empty.
func TestCalibratorWindow(t *testing.T) {
	t0 := time.Now()
	c := &calibrator{}
	for i := 0; i < 50; i++ { // one reading per 200 ms, reading i ms
		c.at, c.ms = append(c.at, t0.Add(time.Duration(i)*calibPeriod)), append(c.ms, float64(i))
	}
	at := func(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }
	// [4 s - 1 s, 5 s + 1 s] holds readings 15..30.
	if got := c.kernelMS(at(4), at(5)); got != 22.5 {
		t.Errorf("kernelMS over [4 s, 5 s] = %v, want 22.5", got)
	}
	if got := c.slowdown(at(4), at(5)); got != 22.5/calibRefMS {
		t.Errorf("slowdown = %v, want %v", got, 22.5/calibRefMS)
	}
	if got := c.kernelMS(at(100), at(101)); got != 24.5 {
		t.Errorf("kernelMS past the last reading = %v, want the overall median 24.5", got)
	}
	if got := (&calibrator{}).slowdown(t0, t0); got != 1 {
		t.Errorf("slowdown without a reading = %v, want 1", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCompare(t *testing.T) {
	// Seeds firstSeed..firstSeed+3; on seed 3 the iteration count is iters,
	// on every other seed 8.
	mk := func(path string, fp fingerprint, firstSeed int64, op float64, iters float64) {
		s := set{Fingerprint: fp}
		for i := int64(0); i < 4; i++ {
			seed, it := firstSeed+i, 8.0
			if seed == 3 {
				it = iters
			}
			s.Runs = append(s.Runs,
				&result{Workload: wExact, Seed: seed, Metrics: map[string]metricValue{"op_ms_p50": {op + float64(i), "ms"}, "sim_as_per_s": {100, "as/s"}}},
				&result{Workload: wExact, Seed: seed, Trace: true, Metrics: map[string]metricValue{"core.scf_iters_per_step": {it, "count"}}})
		}
		if err := writeJSON(path, &s); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	a, b, c, d := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json"), filepath.Join(dir, "d.json")
	fp := fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 1, GoVersion: "go1.24"}
	mk(a, fp, 0, 100, 8)
	mk(b, fp, 2, 140, 9) // shares seeds 2 and 3 with a
	other := fp
	other.GOMAXPROCS = 2
	mk(c, other, 0, 100, 8)
	mk(d, fp, 10, 100, 8) // shares no seed with a

	var out bytes.Buffer
	if err := compareSets(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"op_ms_p50", "WORSE by", "of 101.5", "COUNT CHANGED on seeds [3] of 2 in common", "2 rows beyond"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "sim_as_per_s") && strings.Contains(line, "<<") {
			t.Errorf("an unchanged metric is marked: %s", line)
		}
	}
	out.Reset()
	if err := compareSets(&out, a, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no seed in common") || !strings.Contains(out.String(), "0 rows beyond") {
		t.Errorf("sets without a common seed: want the counts unchecked and nothing beyond a bound:\n%s", out.String())
	}
	if err := compareSets(&out, a, c); err == nil || !strings.Contains(err.Error(), "WARNING") {
		t.Errorf("sets with different fingerprints compared without refusal: %v", err)
	}
}
