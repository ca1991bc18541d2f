// Flight-recorder integration tests: a real 2-rank hybrid ACE+MTS
// trajectory through sim.Run with tracing on must yield a Chrome trace
// whose per-rank span timelines cover (nearly) all of the measured wall
// time, and Result aggregates that agree with the comm ledgers. This is
// the acceptance gate for the observability layer: if instrumentation
// misses a hot phase, coverage drops below the bar and this test names
// the gap before a human stares at a half-empty timeline.
package ptdft_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"ptdft/internal/sim"
	"ptdft/internal/trace"
)

// tracedSpec is the smallest trajectory that exercises every traced
// subsystem at once: hybrid exchange (fock spans), ACE (build/apply),
// MTS cadence, and 2-rank distribution (wait/xfer spans).
func tracedSpec() sim.Spec {
	return sim.Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
		DtAs: 24, Steps: 4, Kick: 0.02, Seed: 1234,
		Hybrid: true, ACE: true, MTS: 2, Ranks: 2, Exchange: "overlap",
	}
}

func TestTraceCoverageDistributedHybrid(t *testing.T) {
	spec := tracedSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	res, err := sim.Run(&spec, sim.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}

	// The folded aggregates must be populated and mutually consistent.
	if res.RankSeconds <= 0 {
		t.Errorf("RankSeconds = %v, want > 0", res.RankSeconds)
	}
	if res.Comm == nil {
		t.Fatal("Comm ledgers missing on a distributed run")
	}
	if res.BytesMoved <= 0 || res.BytesMoved != res.Comm.TotalBytes() {
		t.Errorf("BytesMoved = %d, Comm.TotalBytes = %d; want equal and > 0",
			res.BytesMoved, res.Comm.TotalBytes())
	}
	if len(res.PhaseSeconds) == 0 {
		t.Error("PhaseSeconds empty")
	}
	for _, phase := range []string{"step", "exchange", "ace_build", "ace_apply"} {
		if res.PhaseSeconds[phase] <= 0 {
			t.Errorf("phase %q missing from breakdown %v", phase, res.PhaseSeconds)
		}
	}

	// Every rank's timeline must cover >= 95% of its extent: the step
	// spans alone guarantee this (phases nest inside them), so a gap
	// means a driver stopped opening step spans somewhere.
	cov := rec.Coverage()
	if len(cov) != spec.Ranks {
		t.Fatalf("coverage over %d tracks, want %d: %v", len(cov), spec.Ranks, cov)
	}
	for id, c := range cov {
		if c < 0.95 {
			t.Errorf("rank %d coverage %.3f < 0.95", id, c)
		}
	}
}

// TestPhaseSecondsIsProfile: the phase map and the flat profile are one
// fold of the recorded spans, so on a finished 2-rank hybrid run every
// span name's PhaseSeconds equals its Region.Seconds bit for bit, and
// Result carries the same map.
func TestPhaseSecondsIsProfile(t *testing.T) {
	spec := tracedSpec()
	rec := trace.NewRecorder()
	res, err := sim.Run(&spec, sim.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	regions := rec.Profile()
	ph := rec.PhaseSeconds()
	if len(regions) == 0 || len(ph) != len(regions) || len(res.PhaseSeconds) != len(regions) {
		t.Fatalf("%d regions, %d phases, %d in Result", len(regions), len(ph), len(res.PhaseSeconds))
	}
	for _, reg := range regions {
		if got, ok := ph[reg.Name]; !ok || got != reg.Seconds {
			t.Errorf("PhaseSeconds[%q] = %v (present %v), Region.Seconds %v", reg.Name, got, ok, reg.Seconds)
		}
		if got := res.PhaseSeconds[reg.Name]; got != reg.Seconds {
			t.Errorf("Result.PhaseSeconds[%q] = %v, Region.Seconds %v", reg.Name, got, reg.Seconds)
		}
	}
}

// TestTraceChromeExportWellFormed re-parses the emitted Chrome trace of
// a real run and checks the structural contract the viewers (and
// scripts/tracecheck.sh) rely on.
func TestTraceChromeExportWellFormed(t *testing.T) {
	spec := tracedSpec()
	rec := trace.NewRecorder()
	if _, err := sim.Run(&spec, sim.Options{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	meta := map[int]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("malformed metadata event %+v", ev)
			}
			meta[ev.Tid] = true
		case "X":
			if ev.Name == "" || ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("malformed span event %+v", ev)
			}
			if !meta[ev.Tid] {
				t.Errorf("span on tid %d before its thread_name metadata", ev.Tid)
			}
			spans++
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if len(meta) != 2 {
		t.Errorf("got %d thread_name records, want 2 (one per rank)", len(meta))
	}
	if spans == 0 {
		t.Error("no complete (ph=X) span events in the trace")
	}
}

// buildCountSpec is a kick run whose every density build and potential
// assembly is the PT-CN solver's own, none hides inside exchange: semilocal
// on one or two ranks, and on two ranks the hybrid functional with the exact
// operator or with ACE under MTS 2.
func buildCountSpec(ranks int, hybrid, aceMTS bool) sim.Spec {
	s := sim.Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
		DtAs: 24, Steps: 3, Kick: 0.02, Seed: 1234, Hybrid: hybrid,
	}
	if ranks > 1 {
		s.Ranks, s.Exchange = ranks, "overlap"
	}
	if aceMTS {
		s.ACE, s.MTS, s.Steps = true, 2, 4
	}
	return s
}

// TestEachStateBuiltOnce uses the recorder as witness of the call counts:
// from the second step on, one pass of the propagation loop - a step and
// the observables after it - builds SCFIters + 2 densities (the trial
// state, one per SCF iteration, the converged state) and assembles
// SCFIters + 1 potentials, on every rank. The converged state's pair is
// built by the energy observable and found again, not rebuilt, by the next
// step's first residual; the first step has no one to inherit from and
// builds one more of each. The exchange column is the same rule for
// V_X[Psi]Psi: the exact operator is applied SCFIters + 1 times per pass
// (the energy's product serves the next first residual), and under ACE with
// MTS only by the energy - the outer step's ace_build takes the energy's
// product as its W and applies no exchange of its own. The energies are
// those of PR 24: its preconditioned fixed point reaches the same 1e-6
// density tolerance along a shorter path, which moved each of them by
// 6e-10 to 6.5e-8 Ha from the values pinned while the counts dropped.
// The exact-hybrid row's ground state runs through ACE like every hybrid
// ground state; at the fixed four Fock phases its outer loop stops at a
// different distance from the exact-exchange fixed point, which moved
// those three energies by 1.7e-6 to 4.0e-6 Ha.
func TestEachStateBuiltOnce(t *testing.T) {
	semilocal := []float64{-0.7183520090408, -0.7183017041504, -0.7182592674561}
	for _, tc := range []struct {
		name     string
		spec     sim.Spec
		energies []float64
		// exchange is the number of exchange spans of loop pass k >= 1.
		exchange func(scfIters int) int
	}{
		{"serial", buildCountSpec(1, false, false), semilocal, func(int) int { return 0 }},
		{"2 ranks", buildCountSpec(2, false, false), semilocal, func(int) int { return 0 }},
		{"2 ranks hybrid", buildCountSpec(2, true, false),
			[]float64{-0.8327720267499, -0.8327269189357, -0.8326891255802},
			func(scfIters int) int { return scfIters + 1 }},
		{"2 ranks hybrid ACE MTS", buildCountSpec(2, true, true),
			[]float64{-0.8331002580085, -0.8339420927408, -0.8341690713540, -0.8348589751639},
			func(int) int { return 1 }},
	} {
		spec := tc.spec
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		res, err := sim.Run(&spec, sim.Options{Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != spec.Steps {
			t.Fatalf("%s: %d samples, want %d", tc.name, len(res.Samples), spec.Steps)
		}
		for k, s := range res.Samples {
			if d := s.Energy - tc.energies[k]; d > 1e-10 || d < -1e-10 {
				t.Errorf("%s step %d: energy %.13f Ha, %.13f before this change", tc.name, k+1, s.Energy, tc.energies[k])
			}
		}
		tracks := rec.Tracks()
		if len(tracks) != max(spec.Ranks, 1) {
			t.Fatalf("%s: %d tracks", tc.name, len(tracks))
		}
		for _, tr := range tracks {
			var starts []int64
			for _, sp := range tr.Spans {
				if sp.Name == "step" {
					starts = append(starts, sp.StartNs)
				}
			}
			if len(starts) != spec.Steps {
				t.Fatalf("%s track %d: %d step spans, want %d", tc.name, tr.ID, len(starts), spec.Steps)
			}
			density, potential, exchange := make([]int, spec.Steps), make([]int, spec.Steps), make([]int, spec.Steps)
			var aceBuildEnd int64 // end of the latest ace_build span of a pass k >= 1
			for _, sp := range tr.Spans {
				k := sort.Search(len(starts), func(i int) bool { return starts[i] > sp.StartNs }) - 1
				if k < 0 {
					continue
				}
				switch sp.Name {
				case "density":
					density[k]++
				case "potential":
					potential[k]++
				case "ace_build":
					if k > 0 {
						aceBuildEnd = sp.StartNs + sp.DurNs
					}
				case "exchange":
					exchange[k]++
					if sp.StartNs < aceBuildEnd {
						t.Errorf("%s track %d step %d: ace_build applied the exchange itself after an energy evaluation", tc.name, tr.ID, k+1)
					}
				}
			}
			for k, s := range res.Samples {
				extra := 0
				if k == 0 {
					extra = 1
				}
				if density[k] != s.SCFIters+2+extra || potential[k] != s.SCFIters+1+extra {
					t.Errorf("%s track %d step %d (%d SCF iterations): %d density and %d potential spans, want %d and %d",
						tc.name, tr.ID, k+1, s.SCFIters, density[k], potential[k], s.SCFIters+2+extra, s.SCFIters+1+extra)
				}
				if want := tc.exchange(s.SCFIters); spec.Hybrid && exchange[k] != want+extra {
					t.Errorf("%s track %d step %d (%d SCF iterations): %d exchange spans, want %d",
						tc.name, tr.ID, k+1, s.SCFIters, exchange[k], want+extra)
				}
			}
		}
	}
}
