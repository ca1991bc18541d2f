package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ptdft/internal/grid"
	"ptdft/internal/lattice"
	"ptdft/internal/mpi"
	"ptdft/internal/potential"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
)

// solverState is what set-up leaves behind for a solver workload: the
// validated spec, its system, and the ground state every segment starts
// from.
type solverState struct {
	w    workload
	spec sim.Spec
	cell *lattice.Cell
	g    *grid.Grid
	nb   int
	gs   *scf.Result
}

// setupSolver is the set-up users pay before the first step: spec and
// system build plus the ground-state SCF.
func setupSolver(w workload, seed int64) (*solverState, error) {
	st := &solverState{w: w, spec: w.Spec}
	st.spec.Seed = seed
	if err := st.spec.Validate(); err != nil {
		return nil, err
	}
	var err error
	if st.cell, st.g, st.nb, err = st.spec.System(); err != nil {
		return nil, err
	}
	if st.gs, err = sim.GroundState(&st.spec); err != nil {
		return nil, err
	}
	if !st.gs.Converged {
		return nil, fmt.Errorf("ground state not converged after %d iterations (density error %.2e)", st.gs.SCFIterations, st.gs.DensityError)
	}
	return st, nil
}

// memDelta is the runtime.MemStats change across steps 2..K of a segment.
type memDelta struct {
	allocBytes, mallocs, pauseNs, numGC float64
}

func (m *memDelta) add(d memDelta) {
	m.allocBytes += d.allocBytes
	m.mallocs += d.mallocs
	m.pauseNs += d.pauseNs
	m.numGC += d.numGC
}

// segment is one sim.Run of Spec.Steps steps from the ground state.
type segment struct {
	stamps  []time.Time // AfterStep of steps 1..K
	stepMS  []float64   // steps 2..K, stamp to stamp (observables included)
	firstMS float64     // sim.Run entry to the first AfterStep
	wallS   float64     // first to last AfterStep
	iters   int         // sum of Samples[i].SCFIters
	res     *sim.Result
	mem     memDelta
	failure string // why the segment's steps count as failed; "" when they pass
}

// runSegment propagates one segment. rec == nil is the untraced path the
// end-to-end metrics are taken on; mem adds two ReadMemStats calls, so it
// is off for end-to-end runs.
func (st *solverState) runSegment(rec *trace.Recorder, mem bool, gold goldenEntry) segment {
	k := st.spec.Steps
	stamps := make([]time.Time, 0, k)
	var m0, m1 runtime.MemStats
	opt := sim.Options{
		Ground: st.gs,
		Trace:  rec,
		AfterStep: func(done int) {
			stamps = append(stamps, time.Now())
			if mem && done == 1 {
				runtime.ReadMemStats(&m0)
			}
			if mem && done == k {
				runtime.ReadMemStats(&m1)
			}
		},
	}
	if st.w.Pulse {
		opt.PulseSteps = k
	}
	spec := st.spec
	start := time.Now()
	res, err := sim.Run(&spec, opt)
	seg := segment{res: res, stamps: stamps}
	if err != nil {
		seg.failure = "sim.Run: " + err.Error()
		return seg
	}
	if len(stamps) > 0 {
		seg.firstMS = stamps[0].Sub(start).Seconds() * 1e3
		seg.wallS = stamps[len(stamps)-1].Sub(stamps[0]).Seconds()
	}
	for i := 1; i < len(stamps); i++ {
		seg.stepMS = append(seg.stepMS, stamps[i].Sub(stamps[i-1]).Seconds()*1e3)
	}
	for _, s := range res.Samples {
		seg.iters += s.SCFIters
	}
	if mem {
		seg.mem = memDelta{
			allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
			mallocs:    float64(m1.Mallocs - m0.Mallocs),
			pauseNs:    float64(m1.PauseTotalNs - m0.PauseTotalNs),
			numGC:      float64(m1.NumGC - m0.NumGC),
		}
	}
	seg.failure = st.check(res, gold)
	return seg
}

// check is the correctness gate of one segment; every test is gauge
// invariant (orbitals of two ground-state solves differ by a rotation of
// the occupied subspace, so they are never compared).
func (st *solverState) check(res *sim.Result, gold goldenEntry) string {
	var bad []string
	k := st.spec.Steps
	if len(res.Samples) != k || len(res.Psi) != st.nb*st.g.NG {
		return fmt.Sprintf("got %d samples and %d orbital coefficients, want %d and %d", len(res.Samples), len(res.Psi), k, st.nb*st.g.NG)
	}
	for _, s := range res.Samples {
		for _, v := range []float64{s.Energy, s.CurrentZ, s.Excited, s.TimeFs} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = append(bad, fmt.Sprintf("step %d: non-finite observable", s.Step))
			}
		}
	}
	if e := res.Samples[k-1].Energy; math.Abs(e-gold.EnergyHa) > tolEnergySolver {
		bad = append(bad, fmt.Sprintf("final energy %.10f Ha, golden %.10f (tolerance %g)", e, gold.EnergyHa, tolEnergySolver))
	}
	nel := potential.IntegrateDensity(st.g, potential.Density(st.g, res.Psi, st.nb, 2))
	if want := st.cell.NumElectrons(); math.Abs(nel-want) > tolElectrons || math.Abs(want-gold.Electrons) > tolElectrons {
		bad = append(bad, fmt.Sprintf("electron count %.12f, cell %.12f, golden %.12f (tolerance %g)", nel, want, gold.Electrons, tolElectrons))
	}
	if oe := wavefunc.OrthonormalityError(res.Psi, st.nb, st.g.NG); !(oe <= tolOrtho) {
		bad = append(bad, fmt.Sprintf("max |Psi^H Psi - I| = %.3e > %g", oe, tolOrtho))
	}
	return strings.Join(bad, "; ")
}

// differsFrom says how a segment fails to reproduce ref, a segment of the
// same spec: iteration and communication counts are computed by the
// program, so a traced segment must repeat an untraced one (iterations to
// 1%, bytes exactly).
func (seg segment) differsFrom(ref segment) string {
	if d := math.Abs(float64(seg.iters - ref.iters)); d > 0.01*float64(ref.iters) {
		return fmt.Sprintf("%d SCF iterations, segment 0 had %d", seg.iters, ref.iters)
	}
	if c, rc := seg.res.Comm, ref.res.Comm; c != nil && c.Bytes != rc.Bytes {
		return fmt.Sprintf("comm bytes %v, segment 0 had %v", c.Bytes, rc.Bytes)
	}
	return ""
}

// segmentBudget runs segments until the time is spent: a new segment
// starts only while at least half a segment of budget is left, so the
// measured time lands within half a segment of seconds either way. each
// receives the index of the segment about to run and returns it.
func segmentBudget(seconds float64, minSegs int, each func(i int) segment) []segment {
	var segs []segment
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minSegs {
			elapsed := time.Since(start).Seconds()
			if elapsed+0.5*elapsed/float64(i) > seconds {
				break
			}
		}
		segs = append(segs, each(i))
	}
	return segs
}

// runSolverE2E measures the end-to-end metrics of a solver workload with
// tracing off. Every time is divided by the machine's slowdown around it.
func runSolverE2E(r *result, w workload, cfg runConfig, cal *calibrator, gold goldenEntry) error {
	var setups []float64
	var st *solverState
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		s, err := setupSolver(w, cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds()/cal.slowdown(t, time.Now()))
		st = s
	}
	segs := segmentBudget(cfg.seconds, 1, func(int) segment { return st.runSegment(nil, false, gold) })

	for i, seg := range segs {
		if !r.tally(fmt.Sprintf("segment %d", i), st.spec.Steps, seg.failure) {
			continue
		}
		for j, ms := range seg.stepMS {
			r.OpRawMS = append(r.OpRawMS, ms)
			r.OpMS = append(r.OpMS, ms/cal.slowdown(seg.stamps[j], seg.stamps[j+1]))
		}
	}
	if len(r.OpMS) == 0 {
		return fmt.Errorf("no segment passed its checks: %s", strings.Join(r.Failures, " | "))
	}
	r.samples = len(r.OpMS)
	r.set("setup_s", median(setups))
	r.set("op_ms_p50", median(r.OpMS))
	r.set("sim_as_per_s", st.spec.DtAs/(mean(r.OpMS)/1e3))
	r.set("peak_rss_mb", peakRSSMB())
	return nil
}

// runSolverLayers takes the per-layer numbers of a solver workload: one
// set-up, untraced and traced segments alternating over the first half of
// the time (so the two see the same machine), then the kernel probes.
func runSolverLayers(r *result, w workload, cfg runConfig, gold goldenEntry) error {
	st, err := setupSolver(w, cfg.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("scf.ground_iters", float64(st.gs.SCFIterations))

	segs := segmentBudget(cfg.seconds/2, 2, func(i int) segment {
		if i%2 == 0 {
			return st.runSegment(nil, true, gold)
		}
		return st.runSegment(trace.NewRecorder(), false, gold)
	})
	k := float64(st.spec.Steps)
	ranks := float64(max(st.spec.Ranks, 1))
	var plain, traced []float64
	var first []float64
	var plainWall float64
	var mem memDelta
	nPlain, nTraced := 0.0, 0.0
	phase := map[string]float64{}
	var rankSeconds float64
	for i, seg := range segs {
		if seg.failure == "" && i > 0 && segs[0].failure == "" {
			seg.failure = seg.differsFrom(segs[0])
		}
		if !r.tally(fmt.Sprintf("segment %d", i), st.spec.Steps, seg.failure) {
			continue
		}
		if i%2 == 0 {
			plain = append(plain, seg.stepMS...)
			first = append(first, seg.firstMS)
			plainWall += seg.wallS
			mem.add(seg.mem)
			nPlain++
			continue
		}
		traced = append(traced, seg.stepMS...)
		nTraced++
		for name, sec := range seg.res.PhaseSeconds {
			phase[name] += sec
		}
		rankSeconds += seg.res.RankSeconds
	}
	if nPlain == 0 || nTraced == 0 {
		return fmt.Errorf("no untraced/traced segment pair passed its checks: %s", strings.Join(r.Failures, " | "))
	}
	r.samples = len(plain) + len(traced)

	ref := segs[0]
	r.set("core.scf_iters_per_step", float64(ref.iters)/k)
	if c := ref.res.Comm; c != nil {
		r.set("mpi.bcast_bytes_per_step", float64(c.BytesFor(mpi.ClassBcast))/k)
		r.set("mpi.alltoallv_bytes_per_step", float64(c.BytesFor(mpi.ClassAlltoallv))/k)
		r.set("mpi.allreduce_bytes_per_step", float64(c.BytesFor(mpi.ClassAllreduce))/k)
		var calls int64
		for _, n := range c.Calls {
			calls += n
		}
		r.set("mpi.calls_per_step", float64(calls)/k)
	}
	stepsMem := nPlain * (k - 1)
	r.set("sim.first_step_ms", median(first))
	r.set("sim.alloc_mb_per_step", mem.allocBytes/stepsMem/(1<<20))
	r.set("sim.allocs_per_step", mem.mallocs/stepsMem)
	r.set("sim.gc_pause_ms_per_step", mem.pauseNs/stepsMem/1e6)
	r.set("sim.gc_cycles_per_step", mem.numGC/stepsMem)
	r.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	// Both arms pooled: tracing costs about a percent, a run has too few
	// steps to spare half of them.
	pooled := append(append([]float64(nil), plain...), traced...)
	r.set("sim.raw_op_ms_p50", quantile(pooled, 0.5))
	r.set("sim.raw_op_ms_p90", quantile(pooled, 0.9))
	r.set("sim.raw_as_per_s", float64(len(plain))*st.spec.DtAs/plainWall)

	perRankStep := 1e3 / (nTraced * k * ranks)
	if st.spec.Ranks > 1 {
		for _, ph := range distPhases {
			r.set("dist.phase_"+ph+"_ms", phase[ph]*perRankStep)
		}
		var wait float64
		for name, sec := range phase {
			if strings.HasPrefix(name, "MPI_") && strings.HasSuffix(name, " wait") {
				wait += sec
			}
		}
		r.set("mpi.wait_share", wait/rankSeconds)
	} else {
		setSerialPhases(r, phase, perRankStep)
	}

	if err := (&probes{solverState: st, tmp: cfg.tmp}).run(r); err != nil {
		return err
	}
	stepMS := r.Metrics["core.step_ms"].Value + r.Metrics["dist.step_ms"].Value
	r.set("sim.overhead_ms_per_step", median(plain)-stepMS)
	return nil
}

// setSerialPhases reports the serial driver's spans per step; scale turns
// summed seconds into milliseconds per step.
func setSerialPhases(r *result, phase map[string]float64, scale float64) {
	r.set("core.phase_scf_iter_ms", phase["scf_iter"]*scale)
	r.set("core.phase_orthonormalize_ms", phase["orthonormalize"]*scale)
	r.set("observe.phase_ms", phase["observe"]*scale)
}
