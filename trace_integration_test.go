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
// MTS cadence, and 2-rank distribution (wait/xfer/steal spans).
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

// buildCountSpec is a semilocal kick run: every density build and potential
// assembly of a step is the PT-CN solver's own, none hides inside exchange.
func buildCountSpec(ranks int) sim.Spec {
	s := sim.Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
		DtAs: 24, Steps: 3, Kick: 0.02, Seed: 1234,
	}
	if ranks > 1 {
		s.Ranks, s.Exchange = ranks, "overlap"
	}
	return s
}

// buildCountEnergies are the three sample energies (Ha) of buildCountSpec
// at the commit before the one-transform potential assembly, which changed
// the arithmetic of E_H, E_xc and v_xc in the last bits: serial and 2-rank
// printed the same digits.
var buildCountEnergies = [3]float64{-0.7183520020637, -0.7183016903024, -0.7182592680205}

// TestEachStateBuiltOnce uses the recorder as witness of the call counts:
// from the second step on, one pass of the propagation loop - a step and
// the observables after it - builds SCFIters + 2 densities (the trial
// state, one per SCF iteration, the converged state) and assembles
// SCFIters + 1 potentials, on every rank. The converged state's pair is
// built by the energy observable and found again, not rebuilt, by the next
// step's first residual; the first step has no one to inherit from and
// builds one more of each.
func TestEachStateBuiltOnce(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		spec := buildCountSpec(ranks)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		res, err := sim.Run(&spec, sim.Options{Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != spec.Steps {
			t.Fatalf("ranks %d: %d samples, want %d", ranks, len(res.Samples), spec.Steps)
		}
		for k, s := range res.Samples {
			if d := s.Energy - buildCountEnergies[k]; d > 1e-10 || d < -1e-10 {
				t.Errorf("ranks %d step %d: energy %.13f Ha, %.13f before this change", ranks, k+1, s.Energy, buildCountEnergies[k])
			}
		}
		tracks := rec.Tracks()
		if len(tracks) != ranks {
			t.Fatalf("ranks %d: %d tracks", ranks, len(tracks))
		}
		for _, tr := range tracks {
			var starts []int64
			for _, sp := range tr.Spans {
				if sp.Name == "step" {
					starts = append(starts, sp.StartNs)
				}
			}
			if len(starts) != spec.Steps {
				t.Fatalf("ranks %d track %d: %d step spans, want %d", ranks, tr.ID, len(starts), spec.Steps)
			}
			density, potential := make([]int, spec.Steps), make([]int, spec.Steps)
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
				}
			}
			for k, s := range res.Samples {
				extra := 0
				if k == 0 {
					extra = 1
				}
				if density[k] != s.SCFIters+2+extra || potential[k] != s.SCFIters+1+extra {
					t.Errorf("ranks %d track %d step %d (%d SCF iterations): %d density and %d potential spans, want %d and %d",
						ranks, tr.ID, k+1, s.SCFIters, density[k], potential[k], s.SCFIters+2+extra, s.SCFIters+1+extra)
				}
			}
		}
	}
}
