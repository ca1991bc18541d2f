package main

import (
	"encoding/json"

	"ptdft/internal/sim"
)

// This file is the one table the benchmark is defined by: the workloads,
// the end-to-end metrics with their bounds, and the per-layer metrics with
// the end-to-end metric and workload each is expected to move.
// BENCHMARK.json is generated from it (`-manifest`) and the smoke test
// fails when the two drift apart.

// Workload names are fixed: later issues cite them.
const (
	wSemilocal = "semilocal_serial_si16"
	wExact     = "exact_2rank_si8"
	wACE       = "ace_mts_2rank_si8e6"
	wJobs      = "ptdftd_jobs"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 12

// dtAs is the electronic time step of every workload (attoseconds).
const dtAs = 24

// workload is one row of the benchmark. Solver rows run Spec through
// sim.GroundState + sim.Run in segments of Spec.Steps steps; the job row
// submits Spec to an in-process ptdftd.
type workload struct {
	Name string
	Why  string
	Spec sim.Spec
	// Pulse pins sim.Options.PulseSteps to the segment length, so every
	// segment sees the identical 380 nm envelope.
	Pulse bool
	// Jobs marks the ptdftd row: an operation is a job, not a step.
	Jobs bool
}

var workloads = []workload{
	{
		Name: wSemilocal,
		Why:  "LDA, serial, 18x9x9 grid: density, semilocal H, scalar FFT, mixing and core.PTCN do all the work; fock, dist and mpi do none",
		Spec: sim.Spec{Cells: [3]int{2, 1, 1}, Ecut: 3, Kick: 0.02, Steps: 8, DtAs: dtAs},
	},
	{
		Name: wExact,
		Why:  "hybrid with exact exchange every SCF iteration on 2 ranks (the paper's baseline): dist.FockExchangeWS, pair contraction, lane FFTs and Bcast dominate",
		Spec: sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3, Hybrid: true, Ranks: 2, Exchange: "overlap", Kick: 0.02, Steps: 8, DtAs: dtAs},
	},
	{
		Name:  wACE,
		Why:   "hybrid + ACE + MTS 4 on 2 ranks at Ecut 6 (production regime): exchange built once per 4 steps, so density, energy, transposes and small Allreduces dominate",
		Spec:  sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 6, Hybrid: true, ACE: true, MTS: 4, Ranks: 2, Exchange: "overlap", PulseE0: 0.01, Steps: 8, DtAs: dtAs},
		Pulse: true,
	},
	{
		Name: wJobs,
		Why:  "2 closed-loop clients against an in-process ptdftd, 1 job in 3 a cold SCF: queueing, record persistence, SCF cache, checkpoint fsyncs and the always-on recorder dominate",
		Spec: sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, Kick: 0.02, Steps: 6, DtAs: dtAs},
		Jobs: true,
	},
}

// smoke shrinks a workload to the sizes the smoke test runs (Ecut 2,
// 4 steps per segment), keeping functional, ranks and cadence.
func (w workload) smoke() workload {
	w.Spec.Cells = [3]int{1, 1, 1}
	w.Spec.Ecut = 2
	if !w.Jobs {
		w.Spec.Steps = 4
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named number the benchmark prints.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Src    string  // per-layer only: P probe, T traced run, C exact count, R runtime.MemStats, V job views/files
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
	Doc    string
}

// An operation is one PT-CN step with its observables (solver rows) or one
// job from POST sent to stream closed (ptdftd_jobs). Every end-to-end
// metric is defined on every workload and is never zero. Every time among
// them is speed-adjusted: divided by how much slower than calibRefMS the
// calibration kernel ran around it (calib.go).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of 3 set-ups: spec/system build + sim.GroundState (solver rows); server.New + listener + the 4 cold warm-up jobs that seed the hot set (ptdftd_jobs)"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median time of one operation; solver rows exclude the first step of each segment. An inner step on " + wACE + ", a cache-hit job on " + wJobs},
	{Name: "sim_as_per_s", Unit: "as/s", Better: "higher", Bound: 0.25,
		Doc: "simulated attoseconds per second (the paper's h/fs inverted), from the mean operation time, so MTS outer steps, cold jobs and GC count at their own price: 24 as per mean step; 2 clients x 6 steps x 24 as per mean job"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "VmHWM of the benchmark process at exit"},
}

const (
	mvSemi  = "op_ms_p50 on " + wSemilocal
	mvExact = "op_ms_p50 on " + wExact
	mvACE   = "op_ms_p50 on " + wACE
	mvJobs  = "op_ms_p50 and sim_as_per_s on " + wJobs
	mvNone  = "none (informational)"
)

var perLayer = append(append(kernelLayers, phaseLayers()...), otherLayers...)

var kernelLayers = []metric{
	{Name: "potential.density_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvSemi + " (about 20 builds per step, half the step), " + wACE + " (10-15%), <3% on " + wExact, Doc: "potential.Density, all bands"},
	{Name: "potential.scfpot_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvSemi, Doc: "potential.SCFPotential (Hartree + xc on the dense grid)"},
	{Name: "hamiltonian.apply_semilocal_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvSemi + "; setup_s everywhere (SCF = iterations x Apply)", Doc: "semilocal hamiltonian.Apply, all bands"},
	{Name: "hamiltonian.apply_hybrid_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvExact + "; hybrid setup_s", Doc: "hybrid Apply with exact exchange"},
	{Name: "hamiltonian.apply_ace_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvACE, Doc: "hybrid Apply through the ACE projector"},
	{Name: "hamiltonian.energy_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "op_ms_p50, all solver rows (one TotalEnergy per step in the observables)", Doc: "hamiltonian.TotalEnergy with the workload's functional"},
	{Name: "fock.apply_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvExact + "; hybrid setup_s; none on " + wSemilocal, Doc: "fock.Operator.Apply on a non-reference band set (nb^2 pairs)"},
	{Name: "fock.apply_ref_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvExact + "; hybrid setup_s", Doc: "fock.Operator.ApplyToReference (nb(nb+1)/2 pairs)"},
	{Name: "fock.ace_build_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "sim_as_per_s on " + wACE + " (outer steps); hybrid+ACE setup_s", Doc: "fock.NewACE"},
	{Name: "fock.ace_apply_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvACE, Doc: "fock.ACE.Apply, all bands"},
	{Name: "fourier.fft3_wave_us", Unit: "us", Better: "lower", Src: "P", Moves: mvSemi + " (scalar path)", Doc: "Plan3.ApplySerialWS forward + inverse on the wave box"},
	{Name: "fourier.fft3_dense_us", Unit: "us", Better: "lower", Src: "P", Moves: mvSemi + " (density, Hartree)", Doc: "the same on the dense box"},
	{Name: "fourier.poisson_slab_us", Unit: "us", Better: "lower", Src: "P", Moves: mvExact + " (lane path)", Doc: "Plan3.PoissonSlabWS on the wave box; hybrid rows only"},
	{Name: "linalg.overlap_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "op_ms_p50, all solver rows, <5%", Doc: "linalg.Overlap nb x nb"},
	{Name: "linalg.orthonormalize_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "op_ms_p50, all solver rows, <5%", Doc: "Overlap + CholeskyLower + SolveLowerBands"},
	{Name: "mixing.bandmix_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "op_ms_p50, all solver rows, <5%", Doc: "BandMixer.Mix at full history"},
	{Name: "core.step_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvSemi + " and " + wJobs, Doc: "median core.PTCN.Step without the sim loop; serial rows only"},
	{Name: "core.scf_iters_per_step", Unit: "count", Better: "lower", Src: "C", Moves: "op_ms_p50 on every solver row, proportionally; repeats to 1%", Doc: "mean Samples[i].SCFIters over a segment"},
	{Name: "core.phase_scf_iter_ms", Unit: "ms", Better: "lower", Src: "T", Moves: mvSemi + " and " + wJobs, Doc: "inclusive scf_iter span time per step, serial rows"},
	{Name: "core.phase_orthonormalize_ms", Unit: "ms", Better: "lower", Src: "T", Moves: mvSemi + " and " + wJobs, Doc: "inclusive orthonormalize span time per step, serial rows"},
	{Name: "observe.phase_ms", Unit: "ms", Better: "lower", Src: "T", Moves: mvSemi + " and " + wJobs, Doc: "observe span time per step (energy, current, excited electrons), serial rows"},
	{Name: "dist.step_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "op_ms_p50 on the 2-rank rows", Doc: "median dist.PTCNSolver.Step under mpi.Run(2) without the sim loop"},
	{Name: "dist.exchange_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvExact, Doc: "dist.FockExchangeWS, 2 ranks"},
	{Name: "dist.ace_rebuild_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "sim_as_per_s on " + wACE + " (outer steps)", Doc: "dist.ACE.Rebuild, 2 ranks"},
	{Name: "dist.ace_apply_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvACE, Doc: "dist.ACE.Apply, 2 ranks"},
	{Name: "dist.transpose_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvACE, Doc: "BandToGWS + GToBandWS, 2 ranks"},
}

// distPhases are the recorder's span names on a distributed rank track.
var distPhases = []string{"scf_iter", "density", "residual", "exchange", "contract", "energy", "ace_build", "ace_apply", "orthonormalize"}

func phaseLayers() []metric {
	var ms []metric
	for _, ph := range distPhases {
		ms = append(ms, metric{Name: "dist.phase_" + ph + "_ms", Unit: "ms", Better: "lower", Src: "T",
			Moves: "locates a saving claimed on a 2-rank row", Doc: "inclusive " + ph + " span time per rank-step"})
	}
	return ms
}

var otherLayers = []metric{
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower", Src: "P", Moves: mvACE + "; zero on serial rows", Doc: "AllreduceSum of nb^2 complex128, 2 ranks"},
	{Name: "mpi.bcast_us", Unit: "us", Better: "lower", Src: "P", Moves: mvExact, Doc: "Bcast of one wave-box orbital, 2 ranks"},
	{Name: "mpi.alltoallv_us", Unit: "us", Better: "lower", Src: "P", Moves: mvACE, Doc: "Alltoallv of one band<->G slab exchange, 2 ranks"},
	{Name: "mpi.bcast_bytes_per_step", Unit: "count", Better: "lower", Src: "C", Moves: "a comm change reports it as a count, not a speed-up; " + wExact, Doc: "Comm.Bytes[Bcast] / steps, computed by the program"},
	{Name: "mpi.alltoallv_bytes_per_step", Unit: "count", Better: "lower", Src: "C", Moves: "count; " + wACE, Doc: "Comm.Bytes[Alltoallv] / steps"},
	{Name: "mpi.allreduce_bytes_per_step", Unit: "count", Better: "lower", Src: "C", Moves: "count; " + wACE, Doc: "Comm.Bytes[Allreduce] / steps"},
	{Name: "mpi.calls_per_step", Unit: "count", Better: "lower", Src: "C", Moves: "count; 2-rank rows", Doc: "all collective calls / steps"},
	{Name: "mpi.wait_share", Unit: "fraction", Better: "lower", Src: "T", Moves: "op_ms_p50 on the 2-rank rows (the slowest rank sets the step)", Doc: "sum of MPI_* wait spans / rank-seconds"},
	{Name: "scf.ground_iters", Unit: "count", Better: "lower", Src: "C", Moves: "setup_s", Doc: "SCF iterations of the ground state (the job spec's on ptdftd_jobs)"},
	{Name: "scf.cache_hit_ratio", Unit: "fraction", Better: "higher", Src: "V", Moves: "op_ms_p50 and sim_as_per_s on " + wJobs, Doc: "timed jobs whose ground state came from the SCF cache"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvJobs + " (CkptEvery 2: durable saves in every job)", Doc: "checkpoint.SaveFile of the workload's state"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower", Src: "P", Moves: mvNone, Doc: "checkpoint.LoadFile of the same file"},
	{Name: "checkpoint.bytes", Unit: "count", Better: "lower", Src: "P", Moves: mvJobs, Doc: "size of that file"},
	{Name: "sim.raw_op_ms_p50", Unit: "ms", Better: "lower", Src: "R", Moves: mvNone + ": the median as the clock read it, beside the speed-adjusted op_ms_p50", Doc: "median operation time of the per-layer run, not speed-adjusted"},
	{Name: "sim.raw_as_per_s", Unit: "as/s", Better: "higher", Src: "R", Moves: mvNone + ": the rate as the clock read it, beside the speed-adjusted sim_as_per_s", Doc: "steps x 24 as over the untraced segments' wall; jobs x 6 x 24 as over the loop's wall; not speed-adjusted"},
	{Name: "sim.raw_op_ms_p90", Unit: "ms", Better: "lower", Src: "R", Moves: "sim_as_per_s; the MTS outer steps on " + wACE + ", the cold-SCF jobs on " + wJobs, Doc: "90th percentile operation time of the per-layer run, not speed-adjusted (a run has 20-30 operations, so 2-3 lie beyond it: informational, which is why it has no bound)"},
	{Name: "sim.overhead_ms_per_step", Unit: "ms", Better: "lower", Src: "P", Moves: "op_ms_p50 on solver rows", Doc: "untraced median step minus core/dist.step_ms: observables and the sim loop"},
	{Name: "sim.first_step_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "none (excluded from op_ms_*)", Doc: "sim.Run entry to first AfterStep: Hamiltonian build, lazy plans, first step"},
	{Name: "sim.alloc_mb_per_step", Unit: "MB", Better: "lower", Src: "R", Moves: "sim_as_per_s and peak_rss_mb, largest on " + wSemilocal, Doc: "MemStats.TotalAlloc delta per step"},
	{Name: "sim.allocs_per_step", Unit: "count", Better: "lower", Src: "R", Moves: "sim_as_per_s", Doc: "MemStats.Mallocs delta per step"},
	{Name: "sim.gc_pause_ms_per_step", Unit: "ms", Better: "lower", Src: "R", Moves: "sim_as_per_s", Doc: "MemStats.PauseTotalNs delta per step"},
	{Name: "sim.gc_cycles_per_step", Unit: "count", Better: "lower", Src: "R", Moves: "sim_as_per_s", Doc: "MemStats.NumGC delta per step"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Src: "T", Moves: mvNone, Doc: "traced over untraced median step of alternating segments, minus 1"},
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower", Src: "V", Moves: mvJobs, Doc: "POST /jobs round trip"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower", Src: "V", Moves: mvJobs, Doc: "StartedAt - SubmittedAt"},
	{Name: "server.first_sample_ms_p50", Unit: "ms", Better: "lower", Src: "V", Moves: mvJobs, Doc: "POST sent to first streamed sample"},
	{Name: "server.scf_wall_s_miss_p50", Unit: "s", Better: "lower", Src: "V", Moves: "sim_as_per_s on " + wJobs + " (1 job in 3)", Doc: "Metrics.SCFWallSec of the cache-miss jobs"},
	{Name: "server.run_s_p50", Unit: "s", Better: "lower", Src: "V", Moves: mvJobs, Doc: "FinishedAt - StartedAt"},
	{Name: "server.record_bytes_per_job", Unit: "count", Better: "lower", Src: "V", Moves: mvJobs + " (record rewritten on every cadence)", Doc: "size of <id>.json in the server directory"},
	{Name: "server.rank_seconds_per_job", Unit: "s", Better: "lower", Src: "V", Moves: mvJobs, Doc: "Metrics.RankSeconds from the daemon's always-on recorder"},
	{Name: "machine.calib_ms", Unit: "ms", Better: "lower", Src: "P", Moves: "none: the machine's speed, which the end-to-end times are adjusted by and every per-layer time is not", Doc: "median time of the calibration kernel beside the run (reference: calibRefMS)"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		b := e.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, &b})
	}
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{p.Name, p.Unit, p.Better, nil})
	}
	return m
}

func manifestJSON() []byte {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(data, '\n')
}
