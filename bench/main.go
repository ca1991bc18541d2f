// Command bench is the repository's benchmark: it measures one PT-CN step
// and one ptdftd job end to end and layer by layer, through the entry
// points users hit (sim.GroundState + sim.Run, and server.New behind an
// HTTP listener). See README.md for the workloads, metrics and protocol.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//	bash bench/run.sh [-runs N] [-out set.json]                       every workload, fresh processes
//	bash bench/run.sh -compare a.json b.json                          two sets side by side
//	bash bench/run.sh -manifest | -regen-golden                       BENCHMARK.json / golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"ptdft/internal/parallel"
)

// runConfig is what one run of one workload is told.
type runConfig struct {
	seed    int64
	seconds float64
	setups  int    // set-ups per end-to-end run; setup_s is their median
	tmp     string // directory for the daemon's records and the checkpoint probe
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload in fresh processes")
	seed := fs.Int64("seed", 1, "workload seed: ground-state starting guess and job-seed stream")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	procs := fs.Int("procs", 1, "GOMAXPROCS and parallel.MaxWorkers for the run; 0 leaves both alone (see README: only at 1 do the times repeat and does the calibrator share the workload's thread)")
	smoke := fs.Bool("smoke", false, "smoke sizes: Ecut 2, 4-step segments, one set-up")
	out := fs.String("out", "", "also write the full result (one run) or set (every workload) as JSON here")
	golden := fs.String("golden", "", "golden file overriding the embedded bench/golden.json")
	tmp := fs.String("tmp", "", "scratch directory (default: the system's)")
	runs := fs.Int("runs", 1, "with no -workload: runs per workload and kind, seeds seed..seed+runs-1")
	compare := fs.Bool("compare", false, "compare two set files: -compare a.json b.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json from the metric table")
	regen := fs.Bool("regen-golden", false, "print golden.json regenerated from this build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
		parallel.SetMaxWorkers(*procs)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *manifest:
		stdout.Write(manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two set files, got %d arguments", fs.NArg()))
		}
		if err := compareSets(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	case *regen:
		if err := regenGolden(stdout, *tmp); err != nil {
			return fail(err)
		}
		return 0
	case *name == "":
		if err := runAll(stdout, stderr, allConfig{runs: *runs, seed: *seed, seconds: *seconds, procs: *procs, smoke: *smoke, golden: *golden, tmp: *tmp, out: *out}); err != nil {
			return fail(err)
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	gold, err := loadGolden(*golden)
	if err != nil {
		return fail(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: 3, tmp: *tmp}
	if *smoke {
		w = w.smoke()
		cfg.setups = 1
	}
	entry, ok := gold[goldenKey(w.Name, *smoke)]
	if !ok {
		return fail(fmt.Errorf("golden file has no entry %q; regenerate with: %s", goldenKey(w.Name, *smoke), regenerateCmd))
	}
	r, err := runWorkload(w, cfg, *trace != 0, entry)
	if err != nil {
		// No result line: the run could not measure anything.
		return fail(fmt.Errorf("%s: %w", w.Name, err))
	}
	r.Smoke = *smoke
	r.print(stdout)
	if *out != "" {
		if err := writeJSON(*out, r); err != nil {
			return fail(err)
		}
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// runWorkload is one run, with the calibrator beside it from the first
// set-up to the last measurement.
func runWorkload(w workload, cfg runConfig, traced bool, gold goldenEntry) (*result, error) {
	r := &result{
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: traced,
		Fingerprint: readFingerprint(),
		Metrics:     map[string]metricValue{},
	}
	cal := startCalibrator()
	defer cal.close()
	start := time.Now()
	var err error
	switch {
	case w.Jobs && traced:
		err = runJobsLayers(r, w, cfg, gold)
	case w.Jobs:
		err = runJobsE2E(r, w, cfg, cal, gold)
	case traced:
		err = runSolverLayers(r, w, cfg, gold)
	default:
		err = runSolverE2E(r, w, cfg, cal, gold)
	}
	if err != nil {
		return nil, err
	}
	end := time.Now()
	half := start.Add(end.Sub(start) / 2)
	r.CalibMS = [2]float64{cal.kernelMS(start, half), cal.kernelMS(half, end)}
	r.Noisy = math.Abs(r.CalibMS[1]-r.CalibMS[0]) > 0.1*math.Min(r.CalibMS[0], r.CalibMS[1])
	if traced {
		r.set("machine.calib_ms", cal.kernelMS(start, end))
	}
	r.finish()
	return r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// regenGolden runs one segment (or one job) of every workload at both
// sizes and prints the golden file. The references are energies and
// electron counts, which do not depend on the seed or the thread count.
func regenGolden(stdout io.Writer, tmp string) error {
	gf := goldenFile{Regenerate: regenerateCmd, Entries: map[string]goldenEntry{}}
	cfg := runConfig{seed: 1, tmp: tmp}
	for _, base := range workloads {
		for _, smoke := range []bool{false, true} {
			w := base
			if smoke {
				w = w.smoke()
			}
			var e goldenEntry
			if w.Jobs {
				js, err := setupJobs(w, cfg)
				if err != nil {
					return err
				}
				o := js.runJob(js.hot[0])
				js.close()
				if o.failure != "" || len(o.view.Samples) != w.Spec.Steps {
					return fmt.Errorf("%s: job did not finish: %s %s", w.Name, o.failure, o.view.Error)
				}
				cell, err := w.Spec.Cell()
				if err != nil {
					return err
				}
				e = goldenEntry{EnergyHa: o.view.Samples[w.Spec.Steps-1].Energy, Electrons: cell.NumElectrons()}
			} else {
				st, err := setupSolver(w, cfg.seed)
				if err != nil {
					return err
				}
				seg := st.runSegment(nil, false, goldenEntry{})
				if seg.res == nil {
					return fmt.Errorf("%s: %s", w.Name, seg.failure)
				}
				e = goldenEntry{EnergyHa: seg.res.Samples[w.Spec.Steps-1].Energy, Electrons: st.cell.NumElectrons()}
			}
			gf.Entries[goldenKey(w.Name, smoke)] = e
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetEscapeHTML(false) // the regenerate command contains '>'
	enc.SetIndent("", "  ")
	return enc.Encode(&gf)
}
