package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Tolerances of the correctness checks. Energies are compared with stored
// references, never orbitals: two ground-state solves of one spec may
// differ by a rotation inside the occupied subspace.
const (
	tolEnergySolver = 1e-6 // Ha, final step of a segment against golden.json
	tolEnergyJob    = 1e-5 // Ha, final sample of a job against golden.json
	tolElectrons    = 1e-8
	tolOrtho        = 1e-8 // max |Psi^H Psi - I|
)

//go:embed golden.json
var goldenEmbedded []byte

// goldenEntry is the stored reference of one workload at one size.
type goldenEntry struct {
	EnergyHa  float64 `json:"energy_ha"` // total energy after the last step of a segment / job
	Electrons float64 `json:"electrons"`
}

// goldenFile is bench/golden.json.
type goldenFile struct {
	Regenerate string                 `json:"regenerate"`
	Entries    map[string]goldenEntry `json:"entries"`
}

const regenerateCmd = "bash bench/run.sh -regen-golden > bench/golden.json"

// goldenKey names a workload's entry; smoke sizes have their own.
func goldenKey(name string, smoke bool) string {
	if smoke {
		return name + ".smoke"
	}
	return name
}

func loadGolden(path string) (map[string]goldenEntry, error) {
	data := goldenEmbedded
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return gf.Entries, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	samples     int         // timed operations behind the run's medians, for the header line
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Smoke       bool        `json:"smoke,omitempty"`
	Fingerprint fingerprint `json:"fingerprint"`
	// CalibMS is the median calibration reading over the first and the
	// second half of the run; Noisy flags a run in which the two differ
	// by more than a tenth (the run is kept, not repeated).
	CalibMS [2]float64 `json:"calib_ms"`
	Noisy   bool       `json:"noisy"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"` // steps (solver rows) or jobs
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// End-to-end runs keep every operation's time, as measured and divided
	// by the machine's slowdown around it.
	OpRawMS []float64              `json:"op_raw_ms,omitempty"`
	OpMS    []float64              `json:"op_ms,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, e := range endToEnd {
		m[e.Name] = e.Unit
	}
	for _, p := range perLayer {
		m[p.Name] = p.Unit
	}
	return m
}()

// set records a metric under its unit from the table; a name the table
// does not have is a bug in the benchmark.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// tally counts ops operations as attempted and, when failure is set, as
// failed with the reason; it reports whether they passed.
func (r *result) tally(what string, ops int, failure string) bool {
	r.Attempted += ops
	if failure == "" {
		return true
	}
	r.Failed += ops
	r.Failures = append(r.Failures, what+": "+failure)
	return false
}

// finish fills every metric of the run's kind the workload left unset
// with 0 (a layer it does not exercise) and settles correctness.
func (r *result) finish() {
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	for _, m := range names {
		v, ok := r.Metrics[m.Name]
		if !ok {
			r.set(m.Name, 0)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Failures = append(r.Failures, fmt.Sprintf("metric %s is %v", m.Name, v.Value))
			r.Failed = max(r.Failed, 1)
			r.set(m.Name, 0)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// print writes every metric by name with its unit, then - as the last
// line - the one JSON object the benchmark contract asks for.
func (r *result) print(w io.Writer) {
	kind, names := "end-to-end (tracing off)", endToEnd
	if r.Trace {
		kind, names = "per-layer (probes, counts, traced segments)", perLayer
	}
	fmt.Fprintf(w, "# %s seed %d: %s; %d operations attempted, %d failed, %d timed samples\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.samples)
	fp := r.Fingerprint
	fmt.Fprintf(w, "# %s, nproc %d, GOMAXPROCS %d, workers %d, %s, commit %s, %s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.MaxWorkers, fp.GoVersion, fp.Commit, fp.Timestamp)
	noisy := ""
	if r.Noisy {
		noisy = "  NOISY: the machine changed speed during this run"
	}
	fmt.Fprintf(w, "# calibration reading %.2f ms over the first half, %.2f ms over the second, reference %.2f ms%s\n", r.CalibMS[0], r.CalibMS[1], calibRefMS, noisy)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	for _, m := range names {
		v := r.Metrics[m.Name]
		if m.Moves == "" {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %-8s should move: %s\n", m.Name, v.Value, v.Unit, m.Moves)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finish replaced every non-finite value
	}
	fmt.Fprintf(w, "%s\n", line)
}
