// Command ptdft runs real (laptop-scale) rt-TDDFT simulations with the
// library: ground-state SCF followed by time propagation with PT-CN or
// RK4, optionally with the hybrid (screened exchange) functional, a laser
// pulse or delta kick, and optional distribution over goroutine-MPI ranks.
//
//	ptdft -cells 1,1,1 -ecut 4 -method ptcn -dt 24 -steps 10 -kick 0.02
//	ptdft -cells 1,1,2 -hybrid -method ptcn -dt 50 -steps 4 -pulse 0.005
//	ptdft -ranks 4 -method ptcn -steps 5
//	ptdft -hybrid -ace -mts 4 -ranks 4 -steps 8   # exchange refreshed every 4th step
//	ptdft -md -displace 0:0.2,0,0 -ionsteps 20 -iondt 96 -dt 24 -kick 0   # Ehrenfest MD
//	ptdft -steps 100 -save traj.ckp -ckptevery 10   # durable rolling checkpoints; SIGINT checkpoints and exits
//
// Output: one line per step (time, energy, current, excited carriers, SCF
// count) plus a trace breakdown, and optionally a CSV file for plotting.
// With -md each line is one ion step and the energy column is the
// conserved total (electronic + ion kinetic + ion-ion).
//
// The simulation itself - spec validation, ground state, the four
// propagation drivers - lives in internal/sim, shared with the ptdftd job
// server; this command only parses flags, wires signals, and formats
// output.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"ptdft/internal/checkpoint"
	"ptdft/internal/observe"
	"ptdft/internal/sim"
	"ptdft/internal/trace"
)

// config is the CLI layer around a sim.Spec: the spec describes the
// simulation; the rest is presentation (CSV, quiet), persistence paths,
// and runtime wiring (signals, test hooks).
type config struct {
	spec       sim.Spec
	csvPath    string
	quiet      bool
	savePath   string
	loadPath   string
	ckptEvery  int
	traceFile  string
	commFile   string
	profReport bool

	// Runtime wiring, not flags. stop is closed on SIGINT/SIGTERM (or by a
	// test); the drivers finish the step in flight, checkpoint, and return.
	// afterStep is a test hook observing each completed step (rank 0 in
	// distributed runs).
	stop      chan struct{}
	afterStep func(done int)
}

func parseFlags() (*config, error) {
	var c config
	s := &c.spec
	cellsStr := flag.String("cells", "1,1,1", "supercell repetitions nx,ny,nz (8 Si atoms per cell)")
	flag.Float64Var(&s.Ecut, "ecut", 4, "kinetic energy cutoff (Ha); the paper uses 10")
	flag.BoolVar(&s.Hybrid, "hybrid", false, "use the HSE-like hybrid functional (screened Fock exchange)")
	flag.BoolVar(&s.ACE, "ace", false, "apply exchange through the ACE compression, held for -mts steps (requires -hybrid and -mts)")
	flag.IntVar(&s.MTS, "mts", 0, "ACE refresh period: rebuild Xi from Psi_n every M steps, held in between (requires -ace; 1 is the Jia & Lin cadence)")
	flag.StringVar(&s.Method, "method", "ptcn", "time integrator: ptcn or rk4")
	flag.Float64Var(&s.DtAs, "dt", 24, "time step in attoseconds (paper: 50 for PT-CN, 0.5 for RK4)")
	flag.IntVar(&s.Steps, "steps", 5, "number of propagation steps")
	flag.Float64Var(&s.Kick, "kick", 0.02, "delta-kick vector potential (au); 0 disables")
	flag.Float64Var(&s.PulseE0, "pulse", 0, "380nm Gaussian pulse peak field (Ha/bohr); overrides -kick")
	flag.IntVar(&s.Ranks, "ranks", 0, "distribute over N goroutine-MPI ranks (0 = serial)")
	flag.Int64Var(&s.Seed, "seed", 1234, "ground-state starting guess seed")
	flag.StringVar(&c.csvPath, "csv", "", "write per-step observables to this CSV file")
	flag.BoolVar(&c.quiet, "q", false, "suppress per-step output")
	flag.StringVar(&c.savePath, "save", "", "write a restart checkpoint here after the last step")
	flag.StringVar(&c.loadPath, "load", "", "resume from a checkpoint instead of the ground state")
	flag.IntVar(&c.ckptEvery, "ckptevery", 0, "write a durable rolling checkpoint every N steps (ion steps with -md) to the -save path; 0 = final save only")
	flag.BoolVar(&s.MD, "md", false, "Ehrenfest ion dynamics: velocity-Verlet ions coupled to PT-CN electrons (Hellmann-Feynman forces)")
	flag.IntVar(&s.IonSteps, "ionsteps", 10, "number of ion MD steps (with -md; replaces -steps as the trajectory length)")
	flag.Float64Var(&s.IonDtAs, "iondt", 96, "ion time step in attoseconds (with -md); must be an integer multiple of -dt")
	flag.StringVar(&s.Displace, "displace", "", "displace one atom before the ground state: i:dx,dy,dz (Bohr), e.g. 0:0.2,0,0")
	flag.StringVar(&c.traceFile, "tracefile", "", "record a per-rank span timeline and write it here as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
	flag.StringVar(&c.commFile, "commfile", "", "write the per-rank send/recv byte matrices here as JSON (runs on two or more ranks; the heat-map dump)")
	flag.BoolVar(&c.profReport, "profilereport", false, "print the flight-recorder phase breakdown (span-level Table 1) after the run")
	flag.Parse()
	parts := strings.Split(*cellsStr, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-cells wants nx,ny,nz, got %q", *cellsStr)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad cell count %q", p)
		}
		s.Cells[i] = v
	}
	// The full simulation rule set (exchange cadences, MD tiling) lives
	// with the spec, so a typo fails before the ground-state
	// SCF runs, not after.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Persistence rules are CLI concerns: the spec does not know about
	// checkpoint paths.
	if c.ckptEvery < 0 {
		return nil, fmt.Errorf("-ckptevery wants a cadence >= 1 (or 0 for a final save only), got %d", c.ckptEvery)
	}
	if c.ckptEvery > 0 && c.savePath == "" {
		return nil, fmt.Errorf("-ckptevery writes rolling checkpoints to the -save path; add -save")
	}
	return &c, nil
}

func main() {
	cfg, err := parseFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM finishes the step in
	// flight and writes the final checkpoint (when -save is set); a second
	// signal falls back to the default handler and kills the process.
	cfg.stop = make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "\ncaught %v: finishing the current step, then checkpointing and exiting\n", s)
		close(cfg.stop)
		signal.Stop(sig)
	}()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(cfg *config) error {
	spec := &cfg.spec
	// The flight recorder is allocated only when a trace surface was
	// requested, so the default run keeps every recording site on its
	// zero-alloc disabled path.
	var rec *trace.Recorder
	if cfg.traceFile != "" || cfg.profReport {
		rec = trace.NewRecorder()
	}

	var loaded *checkpoint.State
	if cfg.loadPath != "" {
		st, err := checkpoint.LoadFile(cfg.loadPath)
		if err != nil {
			return err
		}
		loaded = st
		fmt.Printf("loaded checkpoint %s\n", cfg.loadPath)
	}
	var roll *checkpoint.Rolling
	if cfg.ckptEvery > 0 {
		roll = &checkpoint.Rolling{Base: cfg.savePath}
		unit := "steps"
		if spec.MD {
			unit = "ion steps"
		}
		fmt.Printf("durable checkpoints: every %d %s to %s (rolling, last-good link)\n", cfg.ckptEvery, unit, cfg.savePath)
	}

	stepLabel := "propagation step"
	if spec.MD {
		stepLabel = "ion step"
	}
	// A resumed pulse run keeps the original envelope: -steps counts the
	// remaining segment, so the field is shaped by the total trajectory
	// (completed + remaining) and matches the uninterrupted run.
	pulseSteps := 0
	if loaded != nil && !spec.MD {
		pulseSteps = int(loaded.Step) + spec.Steps
	}
	res, err := sim.Run(spec, sim.Options{
		Stop:       cfg.stop,
		AfterStep:  cfg.afterStep,
		Trace:      rec,
		PulseSteps: pulseSteps,
		Resume:     loaded,
		Ckpt:       roll,
		CkptEvery:  cfg.ckptEvery,
		SavePath:   cfg.savePath,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	if !cfg.quiet {
		fmt.Printf("\n%10s %16s %14s %10s %6s %10s\n", "t (fs)", "E (Ha)", "J_z (au)", "n_exc", "SCF", "wall (s)")
		for _, s := range res.Samples {
			fmt.Printf("%10.5f %16.8f %14.4e %10.5f %6d %10.3f\n", s.TimeFs, s.Energy, s.CurrentZ, s.Excited, s.SCFIters, s.WallSec)
		}
	}

	// The drivers return one sample per completed step, so a run stopped
	// early by a signal checkpoints the steps that actually ran.
	if res.Stopped {
		fmt.Printf("interrupted: stopped after %d of %d steps; the checkpoint covers the completed steps\n",
			len(res.Samples), spec.TotalSteps())
	}
	if cfg.savePath != "" {
		fmt.Printf("checkpoint written to %s (step %d)\n", cfg.savePath, res.Final.Step)
	}
	var stepWall float64
	for _, s := range res.Samples {
		stepWall += s.WallSec
	}
	fmt.Printf("\nground state SCF %.4f s; %d %ss %.4f s\n", res.GroundWallSec, len(res.Samples), stepLabel, stepWall)
	if cfg.profReport {
		fmt.Printf("\nflight recorder: %.3f rank-seconds busy", res.RankSeconds)
		if res.BytesMoved > 0 {
			fmt.Printf(", %.1f MB moved", float64(res.BytesMoved)/1e6)
		}
		fmt.Println()
		trace.Report(os.Stdout, rec.Profile())
	}
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		err = rec.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace file: %w", err)
		}
		fmt.Printf("wrote %s (Chrome trace-event JSON; open in chrome://tracing or Perfetto)\n", cfg.traceFile)
	}
	if cfg.commFile != "" {
		if res.BytesMoved == 0 {
			fmt.Fprintln(os.Stderr, "-commfile: the run moved no MPI bytes (one rank, or RK4); skipping the matrix dump")
		} else {
			data, err := res.Comm.MatrixJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(cfg.commFile, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (per-rank send/recv byte matrices)\n", cfg.commFile)
		}
	}
	if cfg.csvPath != "" {
		if err := writeCSV(cfg.csvPath, res.Samples); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.csvPath)
	}
	return nil
}

func writeCSV(path string, samples []observe.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"time_fs", "energy_ha", "current_z", "excited_electrons", "scf_iterations", "wall_seconds"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatFloat(s.TimeFs, 'g', 12, 64),
			strconv.FormatFloat(s.Energy, 'g', 14, 64),
			strconv.FormatFloat(s.CurrentZ, 'g', 8, 64),
			strconv.FormatFloat(s.Excited, 'g', 8, 64),
			strconv.Itoa(s.SCFIters),
			strconv.FormatFloat(s.WallSec, 'g', 6, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
