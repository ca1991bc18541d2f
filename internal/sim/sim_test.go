package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ptdft/internal/checkpoint"
	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/laser"
	"ptdft/internal/observe"
	"ptdft/internal/units"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// testSpec is the smallest real system: Si8, low cutoff, a short PT-CN
// kick trajectory.
func testSpec() Spec {
	return Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
		DtAs: 24, Steps: 6, Kick: 0.02, Seed: 1234,
	}
}

// TestSpecValidateRules pins the validation table: every rule the CLI
// used to enforce must reject through the spec too.
func TestSpecValidateRules(t *testing.T) {
	base := testSpec()
	cell, err := base.Cell()
	if err != nil {
		t.Fatal(err)
	}
	l := cell.L[0]
	cases := []struct {
		name string
		mod  func(*Spec)
		want string // substring of the error; "" means valid
	}{
		{"baseline", func(s *Spec) {}, ""},
		{"zero cells", func(s *Spec) { s.Cells[1] = 0 }, "cells"},
		// The cell is capped at the paper's largest system before it is
		// built: a huge or overflowing product never allocates atoms.
		{"cells 1000^3", func(s *Spec) { s.Cells = [3]int{1000, 1000, 1000} }, "Si1536"},
		{"cells 2^40 cubed", func(s *Spec) { s.Cells = [3]int{1 << 40, 1 << 40, 1 << 40} }, "Si1536"},
		{"cells Si1536", func(s *Spec) { s.Cells = [3]int{4, 6, 8} }, ""},
		{"zero ecut", func(s *Spec) { s.Ecut = 0 }, "ecut"},
		{"bad method", func(s *Spec) { s.Method = "euler" }, "method"},
		{"negative steps", func(s *Spec) { s.Steps = -1 }, "step count"},
		{"negative dt", func(s *Spec) { s.DtAs = -24 }, "dt_as wants a positive time step"},
		{"ace without hybrid", func(s *Spec) { s.ACE = true }, "hybrid"},
		// The Jia & Lin hold cadence is ace + mts 1; a serial run propagates
		// it as a one-rank world, like any rank count, with or without MD.
		{"ace mts 1 serial", func(s *Spec) { s.ACE = true; s.MTS = 1; s.Hybrid = true }, ""},
		{"ace mts 1 md 2 ranks", func(s *Spec) {
			s.ACE = true
			s.MTS = 1
			s.Hybrid = true
			s.MD = true
			s.IonSteps = 1
			s.Ranks = 2
		}, ""},
		{"mts without hybrid", func(s *Spec) { s.MTS = 4 }, "hybrid"},
		{"mts with rk4", func(s *Spec) { s.MTS = 4; s.Hybrid = true; s.Method = "rk4" }, "PT-CN"},
		{"md with rk4", func(s *Spec) { s.MD = true; s.IonSteps = 2; s.Method = "rk4" }, "PT-CN"},
		{"md zero ion steps", func(s *Spec) { s.MD = true; s.IonSteps = 0 }, "ion_steps"},
		{"md bad tiling", func(s *Spec) { s.MD = true; s.IonSteps = 2; s.IonDtAs = 100 }, "multiple"},
		{"negative ranks", func(s *Spec) { s.Ranks = -2 }, "rank"},
		// RK4 steps the same band blocks as PT-CN, on any rank count.
		{"distributed rk4", func(s *Spec) { s.Ranks = 2; s.Method = "rk4" }, ""},
		// The single-precision wire saved no time on goroutine mailboxes and
		// broke the exchange's pair symmetry: removed at every rank count.
		{"single_prec serial", func(s *Spec) { s.SinglePrec = true }, "was removed; use no single_prec"},
		{"single_prec 1 rank", func(s *Spec) { s.SinglePrec = true; s.Ranks = 1 }, "was removed; use no single_prec"},
		{"single_prec 2 ranks", func(s *Spec) { s.SinglePrec = true; s.Ranks = 2 }, "was removed; use no single_prec"},
		{"bad exchange", func(s *Spec) { s.Exchange = "quantum" }, "strategy"},
		// The exchange field survives for stored records: "overlap" is the
		// one schedule, the older removed ones fail like any unknown name,
		// and bcast - the same bits as overlap - names its replacement.
		{"exchange overlap", func(s *Spec) { s.Exchange = "overlap" }, ""},
		{"removed exchange steal", func(s *Spec) { s.Exchange = "steal" }, "the one schedule is overlap"},
		{"removed exchange roundrobin", func(s *Spec) { s.Exchange = "roundrobin" }, "the one schedule is overlap"},
		{"removed exchange bcast", func(s *Spec) { s.Exchange = "bcast" }, `was removed; use exchange "overlap"`},
		// ACE rebuilt at every refresh is the exact step at a higher price,
		// and exact exchange of a frozen reference costs more solves than
		// exact exchange of the iterate: both name what replaces them.
		{"ace without mts", func(s *Spec) { s.Hybrid, s.ACE = true, true }, "was removed; use ace with mts 1"},
		{"mts without ace", func(s *Spec) { s.Hybrid, s.MTS = true, 4 }, "was removed; use ace with the same mts"},
		{"bad displace", func(s *Spec) { s.Displace = "frog" }, "displace"},
		// A non-finite float fails here, naming its field, not after a
		// ground state.
		{"NaN ecut", func(s *Spec) { s.Ecut = math.NaN() }, "ecut wants a finite number"},
		{"Inf ecut", func(s *Spec) { s.Ecut = math.Inf(1) }, "ecut wants a finite number"},
		{"Inf dt", func(s *Spec) { s.DtAs = math.Inf(1) }, "dt_as wants a finite number"},
		{"NaN kick", func(s *Spec) { s.Kick = math.NaN() }, "kick wants a finite number"},
		{"NaN pulse", func(s *Spec) { s.PulseE0 = math.NaN() }, "pulse_e0 wants a finite number"},
		{"Inf ion dt", func(s *Spec) { s.MD, s.IonSteps, s.IonDtAs = true, 1, math.Inf(1) }, "ion_dt_as wants a finite number"},
		{"NaN displace", func(s *Spec) { s.Displace = "0:NaN,0,0" }, "displace: bad component"},
		// A component beyond the cell length on its axis would be wrapped
		// away: the error names the field, the axis and the bound.
		{"displace 1e300", func(s *Spec) { s.Displace = "0:1e300,0,0" }, "displace 1e+300 Bohr along x exceeds the cell length"},
		{"displace L+0.01", func(s *Spec) { s.Displace = fmt.Sprintf("0:%g,0,0", l+0.01) }, fmt.Sprintf("displace %g Bohr along x exceeds the cell length %g Bohr", l+0.01, l)},
		{"displace 0.2", func(s *Spec) { s.Displace = "0:0.2,0,0" }, ""},
		{"indivisible bands", func(s *Spec) { s.Ranks = 3 }, "divisible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mod(&s)
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
			var removed *RemovedError
			if errors.As(err, &removed) != strings.Contains(tc.want, "was removed") {
				t.Errorf("error %v: typed as removed %v", err, removed != nil)
			}
		})
	}
}

// FuzzSpecValidate decodes arbitrary POST /jobs bodies as the server does
// (unknown fields refused) and validates them: Validate must return, not
// panic or allocate past the cell cap, and an accepted spec's cell must
// be within it.
func FuzzSpecValidate(f *testing.F) {
	for _, body := range []string{
		`{"cells":[1,1,1],"ecut":2,"steps":3,"kick":0.02}`,
		`{"cells":[1000,1000,1000],"ecut":1,"steps":1}`,
		`{"cells":[1099511627776,1099511627776,1099511627776],"ecut":1,"steps":1}`,
		`{"cells":[4,6,8],"ecut":1,"steps":1}`,
		`{"cells":[-1,1,1],"ecut":2,"steps":1}`,
		`{"cells":[1,1,1],"ecut":"NaN","steps":1}`,
		`{"cells":[1,1,1],"ecut":2,"dt_as":1e400,"steps":1}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"kick":"Inf"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"0:NaN,0,0"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"0:Inf,-Inf,0"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"99:0.1,0,0"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"-1:0.1,0,0"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"0:1e300,-1e20,0"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"0:10.26,-10.26,0.2"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":"0:1,2"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"displace":":,,"}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"md":true,"ion_steps":2,"ion_dt_as":1e308}`,
		`{"cells":[1,1,1],"ecut":2,"steps":1,"hybrid":true,"ace":true,"mts":1,"ranks":2}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&s) != nil {
			return
		}
		if s.Validate() != nil {
			return
		}
		n := 1
		for _, v := range s.Cells {
			if v < 1 || v > maxCells {
				t.Fatalf("accepted cells %v", s.Cells)
			}
			n *= v
		}
		if n > maxCells {
			t.Fatalf("accepted cells %v: %d cells", s.Cells, n)
		}
		if s.Displace != "" {
			cell, err := s.Cell()
			if err != nil {
				t.Fatalf("accepted displace %q: %v", s.Displace, err)
			}
			_, d, _ := ParseDisplace(s.Displace)
			for k := range d {
				if !(math.Abs(d[k]) <= cell.L[k]) {
					t.Fatalf("accepted displace %q: component %g beyond the cell length %g", s.Displace, d[k], cell.L[k])
				}
			}
		}
	})
}

// TestSpecNormalizeDefaults: a sparse JSON spec gets the CLI defaults.
func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, Steps: 1, MD: true, IonSteps: 1, ACE: true, MTS: 1, Hybrid: true, Ranks: 2}
	s.Normalize()
	if s.Method != "ptcn" || s.DtAs != 24 || s.IonDtAs != 96 {
		t.Errorf("defaults not filled: %+v", s)
	}
	// Defaults only: the cadence (here the Jia & Lin hold, ace + mts 1) is
	// what the spec wrote, and no other field selects one.
	if !s.ACE || s.MTS != 1 {
		t.Errorf("normalize changed the cadence to ace=%v mts=%d, want ace=true mts=1", s.ACE, s.MTS)
	}
}

// TestZeroExchangeOptionsIsTheDefaultSchedule: a dist.ExchangeOptions{}
// literal selects the schedule a zero Spec resolves to, overlap.
func TestZeroExchangeOptionsIsTheDefaultSchedule(t *testing.T) {
	var s Spec
	got, err := s.ExchangeStrategy()
	if err != nil || got != (dist.ExchangeOptions{}).Strategy || got.String() != "overlap" {
		t.Errorf("a zero Spec resolves to %q (%v), dist.ExchangeOptions{} to %q", got, err, (dist.ExchangeOptions{}).Strategy)
	}
}

// TestSCFKeySensitivity: the cache key must separate every spec
// dimension that changes the converged ground state - including MD's
// projectors, which perturb it at round-off - and no other. The
// propagation's exchange operator is not one: every hybrid ground state
// runs through ACE.
func TestSCFKeySensitivity(t *testing.T) {
	key := func(mod func(*Spec)) string {
		s := testSpec()
		mod(&s)
		k, err := s.SCFKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(func(s *Spec) {})
	if base != key(func(s *Spec) {}) {
		t.Fatal("equal specs produced different keys")
	}
	// Steps and kick do NOT change the ground state: same key, so an
	// ensemble over trajectories shares one solve.
	if base != key(func(s *Spec) { s.Steps = 100; s.Kick = 0.5 }) {
		t.Error("trajectory-only fields changed the key")
	}
	if base != key(func(s *Spec) { s.Ranks = 4 }) {
		t.Error("rank layout changed the key")
	}
	if key(func(s *Spec) { s.Hybrid = true }) != key(func(s *Spec) { s.Hybrid, s.ACE, s.MTS = true, true, 4 }) {
		t.Error("ace changed the key")
	}
	for name, mod := range map[string]func(*Spec){
		"ecut":     func(s *Spec) { s.Ecut = 3 },
		"hybrid":   func(s *Spec) { s.Hybrid = true },
		"md":       func(s *Spec) { s.MD = true; s.IonSteps = 1; s.IonDtAs = 96 },
		"seed":     func(s *Spec) { s.Seed = 99 },
		"cells":    func(s *Spec) { s.Cells = [3]int{1, 1, 2} },
		"displace": func(s *Spec) { s.Displace = "0:0.1,0,0" },
	} {
		if base == key(mod) {
			t.Errorf("%s change did not change the SCF key", name)
		}
	}
}

// TestACETwinsShareOneGroundState: GroundState ignores the propagation's
// exchange operator, so an exact hybrid spec and its ACE/MTS twin (one
// SCF key, TestSCFKeySensitivity) solve bit for bit the same ground state.
func TestACETwinsShareOneGroundState(t *testing.T) {
	exact := testSpec()
	exact.Hybrid = true
	twin := exact
	twin.ACE, twin.MTS = true, 4
	var got [2][]float64
	for i, s := range []*Spec{&exact, &twin} {
		r, err := GroundState(s)
		if err != nil {
			t.Fatal(err)
		}
		b := r.Energy
		got[i] = append([]float64{b.Kinetic, b.Nonlocal, b.Hartree, b.XC, b.Local, b.Exchange}, r.BandEnergies...)
		got[i] = append(got[i], r.Rho...)
		for _, v := range r.Psi {
			got[i] = append(got[i], real(v), imag(v))
		}
	}
	if len(got[0]) != len(got[1]) {
		t.Fatalf("%d values for the exact spec, %d for its ACE twin", len(got[0]), len(got[1]))
	}
	for i := range got[0] {
		if math.Float64bits(got[0][i]) != math.Float64bits(got[1][i]) {
			t.Fatalf("value %d (energy terms, band energies, density, orbitals): exact spec %v, ACE twin %v", i, got[0][i], got[1][i])
		}
	}
}

// runCase is one row of the layout x integrator matrix the Run tests are
// driven over: mod turns testSpec into the row's spec.
type runCase struct {
	name string
	mod  func(*Spec)
}

// withMD makes the row an Ehrenfest run of k electronic steps per ion
// step, released from a displaced atom.
func withMD(k int) func(*Spec) {
	return func(s *Spec) {
		s.MD, s.IonDtAs, s.Displace = true, float64(k)*s.DtAs, "0:0.1,0,0"
	}
}

// setLen sets the trajectory length in loop steps (ion steps under MD).
func setLen(s *Spec, n int) {
	if s.MD {
		s.IonSteps = n
	} else {
		s.Steps = n
	}
}

// elSteps is the electronic step count of n loop steps.
func elSteps(s *Spec, n int) int64 {
	if s.MD {
		return int64(n * s.IonSubsteps())
	}
	return int64(n)
}

func maxDiff3(a, b [][3]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		for d := 0; d < 3; d++ {
			m = math.Max(m, math.Abs(a[i][d]-b[i][d]))
		}
	}
	return m
}

// stopAfter returns options whose run stops after n steps of its segment.
func stopAfter(n int) Options {
	stop := make(chan struct{})
	return Options{Stop: stop, AfterStep: func(done int) {
		if done == n {
			close(stop)
		}
	}}
}

// TestRunSplitEqualsContinuous: running a trajectory in two segments
// through an in-memory checkpoint (the server's preempt/resume path,
// without the disk) agrees with the uninterrupted run - same ground state,
// same samples, same final orbitals and, under MD, the same ion state -
// on one and two ranks, with and without the ion integrator, and under
// RK4. The RK4 rows split before the re-orthonormalization of step 20 and
// must agree bit for bit: the cadence counts the trajectory's steps, not
// the segment's. Both segments run the uninterrupted run's spec: the
// first is stopped after `split` steps, the second resumes and runs to the
// spec's trajectory length. The MTS rows split mid-cycle, so the in-memory
// Final must carry the frozen exchange reference. The uninterrupted run
// also writes rolling checkpoints every 2 steps: exactly the files
// {2, 4, ..., final} numbered by cumulative electronic step, the last one
// equal to Final.
func TestRunSplitEqualsContinuous(t *testing.T) {
	lda := func(s *Spec) {}
	aceMTS2 := func(s *Spec) { s.Hybrid, s.ACE, s.MTS = true, true, 2 }
	aceMTS3 := func(s *Spec) { s.Hybrid, s.ACE, s.MTS = true, true, 3 }
	ranks2 := func(s *Spec) { s.Ranks = 2 }
	rk4 := func(s *Spec) { s.Method, s.DtAs = "rk4", 0.5 }
	both := func(mods ...func(*Spec)) func(*Spec) {
		return func(s *Spec) {
			for _, m := range mods {
				m(s)
			}
		}
	}
	cases := []struct {
		runCase
		total, split int
		bits         bool // split == continuous bit for bit, not to 1e-10
	}{
		{runCase{"1-rank LDA", lda}, 6, 3, false},
		{runCase{"1-rank ACE MTS2", aceMTS2}, 6, 3, false},
		{runCase{"1-rank ACE MTS3", aceMTS3}, 6, 2, false},
		{runCase{"serial RK4", rk4}, 20, 10, true},
		{runCase{"2-rank RK4", both(ranks2, rk4)}, 20, 10, true},
		{runCase{"2-rank LDA", ranks2}, 6, 3, false},
		{runCase{"2-rank ACE MTS2", both(ranks2, aceMTS2)}, 6, 3, false},
		{runCase{"2-rank ACE MTS3", both(ranks2, aceMTS3)}, 6, 2, false},
		{runCase{"1-rank MD LDA", withMD(2)}, 3, 1, false},
		{runCase{"1-rank MD ACE MTS2", both(aceMTS2, withMD(3))}, 3, 1, false},
		{runCase{"1-rank MD ACE MTS3", both(aceMTS3, withMD(2))}, 3, 1, false},
		{runCase{"2-rank MD LDA", both(ranks2, withMD(2))}, 3, 1, false},
		{runCase{"2-rank MD ACE MTS2", both(ranks2, aceMTS2, withMD(3))}, 3, 1, false},
		{runCase{"2-rank MD ACE MTS3", both(ranks2, aceMTS3, withMD(2))}, 3, 1, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mod(&spec)
			setLen(&spec, tc.total)
			roll := &checkpoint.Rolling{Base: filepath.Join(t.TempDir(), "ck"), Keep: tc.total}
			cont, err := Run(&spec, Options{Ckpt: roll, CkptEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			specA := spec
			optA := stopAfter(tc.split)
			if i > 0 {
				// The first row solves its ground state twice (run-to-run
				// determinism); the others share one to save the SCF.
				optA.Ground = cont.Ground
			}
			segA, err := Run(&specA, optA)
			if err != nil {
				t.Fatal(err)
			}
			if want := elSteps(&specA, tc.split); segA.Final == nil || segA.Final.Step != want {
				t.Fatalf("segment A final state covers step %v, want %d", segA.Final, want)
			}
			if spec.MTS > 0 && segA.Final.MTSPhase == 0 {
				t.Fatalf("segment A ended on a cycle boundary; the row is meant to split mid-cycle")
			}
			specB := spec
			segB, err := Run(&specB, Options{Ground: segA.Ground, Resume: segA.Final})
			if err != nil {
				t.Fatal(err)
			}
			if want := elSteps(&spec, tc.total); segB.Final.Step != want {
				t.Errorf("resumed final step %d, want %d", segB.Final.Step, want)
			}
			tol := 1e-10
			if tc.bits {
				tol = 0
			}
			all := append(append([]observe.Sample{}, segA.Samples...), segB.Samples...)
			if len(all) != len(cont.Samples) {
				t.Fatalf("split yielded %d samples, continuous %d", len(all), len(cont.Samples))
			}
			for i := range all {
				if all[i].Step != cont.Samples[i].Step {
					t.Errorf("sample %d: step %d vs %d", i, all[i].Step, cont.Samples[i].Step)
				}
				if d := math.Abs(all[i].Energy - cont.Samples[i].Energy); d > tol {
					t.Errorf("sample %d: energy differs by %g", i, d)
				}
				if d := math.Abs(all[i].CurrentZ - cont.Samples[i].CurrentZ); d > tol {
					t.Errorf("sample %d: current differs by %g", i, d)
				}
				if d := math.Abs(all[i].Excited - cont.Samples[i].Excited); d > tol {
					t.Errorf("sample %d: excited electrons differ by %g", i, d)
				}
			}
			if len(segB.Psi) != len(cont.Psi) {
				t.Fatalf("psi length %d vs %d", len(segB.Psi), len(cont.Psi))
			}
			var maxd float64
			for i := range cont.Psi {
				if d := cmplx.Abs(segB.Psi[i] - cont.Psi[i]); d > maxd {
					maxd = d
				}
			}
			if maxd > tol {
				t.Errorf("split and continuous orbitals differ by %g, want <= %g", maxd, tol)
			}
			if spec.MD {
				a, b := segB.Final, cont.Final
				if a.IonSteps != int64(tc.total) || b.IonSteps != int64(tc.total) {
					t.Errorf("ion step counters %d (split) and %d (continuous), want %d", a.IonSteps, b.IonSteps, tc.total)
				}
				for what, d := range map[string]float64{
					"positions":  maxDiff3(a.IonPos, b.IonPos),
					"velocities": maxDiff3(a.IonVel, b.IonVel),
					"forces":     maxDiff3(a.IonForce, b.IonForce),
				} {
					if d > 1e-10 {
						t.Errorf("split and continuous ion %s differ by %g, want <= 1e-10", what, d)
					}
				}
			}

			// The rolling sequence of the uninterrupted run.
			var wantFiles []string
			for n := 2; n < tc.total; n += 2 {
				wantFiles = append(wantFiles, fmt.Sprintf("ck.step%010d", elSteps(&spec, n)))
			}
			wantFiles = append(wantFiles, fmt.Sprintf("ck.step%010d", elSteps(&spec, tc.total)))
			matches, err := filepath.Glob(roll.Base + ".step*")
			if err != nil {
				t.Fatal(err)
			}
			var gotFiles []string
			for _, m := range matches {
				gotFiles = append(gotFiles, filepath.Base(m))
			}
			if !reflect.DeepEqual(gotFiles, wantFiles) {
				t.Errorf("rolling checkpoint files %v, want %v", gotFiles, wantFiles)
			}
			last, _, err := roll.Latest()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(last, cont.Final) {
				t.Errorf("the newest rolling checkpoint (step %d) does not load back to Final (step %d)", last.Step, cont.Final.Step)
			}
		})
	}
}

// TestRunPulseSplitEqualsContinuous: the 380nm pulse envelope is a
// function of the whole trajectory, shaped from the spec's length, so a
// run stopped after 3 of its 6 steps and resumed through a checkpoint
// propagates under the identical field as the uninterrupted run.
func TestRunPulseSplitEqualsContinuous(t *testing.T) {
	spec := testSpec()
	spec.Kick, spec.PulseE0 = 0, 0.005
	cont, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specA := spec
	segA, err := Run(&specA, stopAfter(3))
	if err != nil {
		t.Fatal(err)
	}
	specB := spec
	segB, err := Run(&specB, Options{Ground: segA.Ground, Resume: segA.Final})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]observe.Sample{}, segA.Samples...), segB.Samples...)
	if len(segA.Samples) != 3 || len(all) != len(cont.Samples) {
		t.Fatalf("split yielded %d + %d samples, continuous %d", len(segA.Samples), len(segB.Samples), len(cont.Samples))
	}
	for i := range all {
		if d := math.Abs(all[i].Energy - cont.Samples[i].Energy); d > 1e-10 {
			t.Errorf("sample %d: energy differs by %g - the resumed segment saw a different laser field", i, d)
		}
	}
	var maxd float64
	for i := range cont.Psi {
		if d := cmplx.Abs(segB.Psi[i] - cont.Psi[i]); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-10 {
		t.Errorf("split and continuous orbitals differ by %g, want <= 1e-10", maxd)
	}
}

// TestRunMDPulse: under MD the pulse envelope is shaped from the
// trajectory's IonSteps x K electronic steps, and Steps - which MD
// ignores - changes nothing. A spec that omits steps propagates finite
// samples (an envelope shaped from zero steps has sigma = 0, a 0/0 field),
// and setting steps leaves the trajectory bit for bit as it was.
func TestRunMDPulse(t *testing.T) {
	spec := Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, MD: true, IonSteps: 2, PulseE0: 0.01}
	res, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(res.Samples))
	}
	for _, smp := range res.Samples {
		for _, v := range []float64{smp.Energy, smp.CurrentZ, smp.Excited} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("step %d: sample %+v is not finite", smp.Step, smp)
			}
		}
	}
	withSteps := spec
	withSteps.Steps = 5
	other, err := Run(&withSteps, Options{Ground: res.Ground})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(other.Final, res.Final) {
		t.Error("steps: 5 changed the MD trajectory")
	}
	for i, smp := range other.Samples {
		if a, b := smp.Energy, res.Samples[i].Energy; a != b {
			t.Errorf("ion step %d: energy %.15g with steps 5, %.15g without", i+1, a, b)
		}
	}
}

// TestRunResumeBounds: Run continues a checkpoint up to the spec's
// trajectory length. A checkpoint at the end returns as it stands, without
// a ground state; one past the end is an error naming both step counts;
// and Options.PulseSteps may only restate the length the envelope is
// shaped from. A segment resumed mid-trajectory counts from its own start:
// OnSample sees the trajectory's step numbers once each, AfterStep the
// segment's, and the checkpoint cadence leaves the files of the steps it
// completed plus the final one.
func TestRunResumeBounds(t *testing.T) {
	spec := testSpec()
	spec.Steps = 2
	res, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done, err := Run(&spec, Options{Resume: res.Final})
	if err != nil {
		t.Fatal(err)
	}
	if done.Final != res.Final || done.Ground != nil || len(done.Samples) != 0 {
		t.Errorf("a checkpoint at the trajectory's end ran: %d samples, ground state %v", len(done.Samples), done.Ground != nil)
	}
	short := spec
	short.Steps = 1
	if _, err := Run(&short, Options{Resume: res.Final}); err == nil || !strings.Contains(err.Error(), "at 2 steps, past the trajectory's 1 steps") {
		t.Errorf("a checkpoint past the trajectory's end: error %v does not name both step counts", err)
	}
	if _, err := Run(&spec, Options{Ground: res.Ground, PulseSteps: 3}); err == nil || !strings.Contains(err.Error(), "PulseSteps 3") {
		t.Errorf("a PulseSteps other than the trajectory's length: error %v", err)
	}
	if _, err := Run(&spec, Options{Ground: res.Ground, PulseSteps: 2}); err != nil {
		t.Errorf("PulseSteps equal to the trajectory's length rejected: %v", err)
	}

	long := spec
	long.Steps = 7
	roll := &checkpoint.Rolling{Base: filepath.Join(t.TempDir(), "ck"), Keep: long.Steps}
	var streamed, after []int
	seg, err := Run(&long, Options{
		Ground: res.Ground, Resume: res.Final, Ckpt: roll, CkptEvery: 3,
		OnSample:  func(s observe.Sample) { streamed = append(streamed, s.Step) },
		AfterStep: func(done int) { after = append(after, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4, 5, 6, 7}; !reflect.DeepEqual(streamed, want) {
		t.Errorf("streamed steps %v, want %v", streamed, want)
	}
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(after, want) {
		t.Errorf("AfterStep calls %v, want %v", after, want)
	}
	matches, err := filepath.Glob(roll.Base + ".step*")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, m := range matches {
		files = append(files, filepath.Base(m))
	}
	if want := []string{"ck.step0000000005", "ck.step0000000007"}; !reflect.DeepEqual(files, want) {
		t.Errorf("the resumed segment's rolling checkpoint files %v, want %v", files, want)
	}
	if last, _, err := roll.Latest(); err != nil || last.Step != seg.Final.Step {
		t.Errorf("newest checkpoint %v (%v), want step %d", last, err, seg.Final.Step)
	}
}

// TestRunStopAndStream: the Stop channel ends the run after the step in
// flight; OnSample saw exactly the completed steps, in order - on one and
// two ranks and under MD. The last row asks for 2^34 steps: the sample
// history must grow with the steps that ran, never be sized from the spec
// (a distributed run used to ask the runtime for ~1 TB before step one).
func TestRunStopAndStream(t *testing.T) {
	cases := []struct {
		runCase
		total, stopAt int
	}{
		{runCase{"serial", func(s *Spec) {}}, 10, 4},
		{runCase{"2-rank", func(s *Spec) { s.Ranks = 2 }}, 10, 2},
		{runCase{"serial MD", withMD(2)}, 10, 2},
		{runCase{"2-rank MD", func(s *Spec) { s.Ranks = 2; withMD(2)(s) }}, 10, 2},
		{runCase{"2-rank unbounded", func(s *Spec) { s.Ranks = 2 }}, 1 << 34, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mod(&spec)
			setLen(&spec, tc.total)
			stop := make(chan struct{})
			var streamed []int
			res, err := Run(&spec, Options{
				Stop:     stop,
				OnSample: func(s observe.Sample) { streamed = append(streamed, s.Step) },
				AfterStep: func(done int) {
					if done == tc.stopAt {
						close(stop)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stopped {
				t.Error("Stopped not set")
			}
			if len(res.Samples) != tc.stopAt {
				t.Fatalf("ran %d steps, want %d", len(res.Samples), tc.stopAt)
			}
			if len(streamed) != tc.stopAt || streamed[tc.stopAt-1] != tc.stopAt {
				t.Errorf("streamed steps %v, want 1..%d", streamed, tc.stopAt)
			}
			if want := elSteps(&spec, tc.stopAt); res.Final.Step != want {
				t.Errorf("final state step %d, want %d", res.Final.Step, want)
			}
		})
	}
}

// TestRunPeriodicSaveFailure: a periodic checkpoint that cannot be written
// ends the run within that step - the root folds the failure into the
// shutdown vote, so every rank leaves together (Run returning at all is
// the evidence: mpi.Run waits for every rank) - and Run returns the error
// instead of a result it would have to discard.
func TestRunPeriodicSaveFailure(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			notADir := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(notADir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			spec := testSpec()
			spec.Ranks = ranks
			steps := 0
			res, err := Run(&spec, Options{
				Ckpt:      &checkpoint.Rolling{Base: filepath.Join(notADir, "ck")},
				CkptEvery: 2,
				AfterStep: func(done int) { steps = done },
			})
			if err == nil || !strings.Contains(err.Error(), "periodic checkpoint after step 2") {
				t.Fatalf("error %v does not name the failed periodic checkpoint", err)
			}
			if res != nil {
				t.Error("a failed run returned a result")
			}
			if steps != 2 {
				t.Errorf("the run went on to step %d after the save at step 2 failed", steps)
			}
		})
	}
}

// TestRunSerialEqualsDistributed: the rank count is a layout, not a
// propagation. From one shared ground state the serial (one-rank) and the
// 2-rank run of one spec agree on every sample, semi-local and hybrid.
func TestRunSerialEqualsDistributed(t *testing.T) {
	for _, tc := range []runCase{
		{"LDA", func(s *Spec) {}},
		{"hybrid", func(s *Spec) { s.Hybrid = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mod(&spec)
			spec.Steps = 3
			serial, err := Run(&spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			spec.Ranks = 2
			ranked, err := Run(&spec, Options{Ground: serial.Ground})
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked.Samples) != len(serial.Samples) {
				t.Fatalf("%d samples on 2 ranks, %d serially", len(ranked.Samples), len(serial.Samples))
			}
			for i, a := range serial.Samples {
				b := ranked.Samples[i]
				if a.Step != b.Step || a.SCFIters != b.SCFIters {
					t.Errorf("sample %d: step/SCF %d/%d serially, %d/%d on 2 ranks", i, a.Step, a.SCFIters, b.Step, b.SCFIters)
				}
				for what, d := range map[string]float64{
					"time": a.TimeFs - b.TimeFs, "energy": a.Energy - b.Energy,
					"current": a.CurrentZ - b.CurrentZ, "excited": a.Excited - b.Excited,
				} {
					if math.Abs(d) > 1e-9 {
						t.Errorf("sample %d: %s differs by %g between 1 and 2 ranks, want <= 1e-9", i, what, d)
					}
				}
			}
		})
	}
}

// TestRunCurrentEqualsHandLoop: the J_z series of Run is the one a
// core.PTCN + System.Prepare + observe.Current loop records on the same
// ground state - the identity ptdft -spectrum and the kick examples rest
// on.
func TestRunCurrentEqualsHandLoop(t *testing.T) {
	spec := testSpec()
	spec.Steps = 3
	res, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, g, nb, err := spec.System()
	if err != nil {
		t.Fatal(err)
	}
	h := hamiltonian.New(g, spec.Pots(), hamiltonian.Config{Params: xc.HSE06()})
	sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: &laser.Kick{K: spec.Kick, Pol: [3]float64{0, 0, 1}}}
	p := core.NewPTCN(sys, core.DefaultPTCN())
	psi := res.Ground.Psi
	for i, s := range res.Samples {
		if psi, _, err = p.Step(psi, units.AttosecondsToAU(spec.DtAs)); err != nil {
			t.Fatal(err)
		}
		sys.Prepare(psi, p.Time)
		if jz := observe.Current(sys, psi)[2]; math.Abs(jz-s.CurrentZ) > 1e-12 {
			t.Errorf("step %d: J_z %.15e from Run, %.15e from the hand loop", i+1, s.CurrentZ, jz)
		}
	}
}

// TestRunStopOnLastStepCompletes: a stop request that arrives as the last
// step completes ends a finished segment, which Run must not report as
// Stopped - the CLI would print "interrupted" and the job server would
// requeue a done job.
func TestRunStopOnLastStepCompletes(t *testing.T) {
	spec := testSpec()
	spec.Steps = 2
	res, err := Run(&spec, stopAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped || len(res.Samples) != 2 || res.Final.Step != 2 {
		t.Errorf("Stopped %v after %d samples (final step %d), want a completed run of 2 steps", res.Stopped, len(res.Samples), res.Final.Step)
	}
}

// TestRunRK4IsCoreRK4: RK4 runs in the one engine, dist.PTCNSolver's band
// block in a world. On one rank it is core.RK4 over the serial
// core.System bit for bit - every sample and the final orbitals, across
// the re-orthonormalization of step 20, semi-local and exact hybrid - and
// on two ranks it is the one-rank run to 1e-10.
func TestRunRK4IsCoreRK4(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		t.Run(fmt.Sprintf("hybrid=%v", hybrid), func(t *testing.T) {
			spec := testSpec()
			spec.Method, spec.DtAs, spec.Steps, spec.Hybrid = "rk4", 0.5, 21, hybrid
			res, err := Run(&spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Comm == nil {
				t.Error("an RK4 run returned no communication ledger")
			}
			_, g, nb, err := spec.System()
			if err != nil {
				t.Fatal(err)
			}
			h := hamiltonian.New(g, spec.Pots(), hamiltonian.Config{Hybrid: hybrid, Params: xc.HSE06()})
			sys := &core.System{G: g, H: h, NB: nb, Occ: 2, Field: spec.Field()}
			rk := core.NewRK4(sys)
			psi := res.Ground.Psi
			for i, s := range res.Samples {
				if psi, _, err = rk.Step(psi, units.AttosecondsToAU(spec.DtAs)); err != nil {
					t.Fatal(err)
				}
				want := observe.Sample{
					Step: i + 1, TimeFs: rk.Time * units.FemtosecondPerAU,
					Energy: observe.Energy(sys, psi, rk.Time).Total(), CurrentZ: observe.Current(sys, psi)[2],
					Excited: observe.ExcitedElectrons(sys, res.Ground.Psi, psi), WallSec: s.WallSec,
				}
				if s != want {
					t.Errorf("step %d: Run sampled %+v, core.RK4 %+v", i+1, s, want)
				}
			}
			if len(res.Samples) != spec.Steps || !reflect.DeepEqual(res.Psi, psi) {
				t.Errorf("%d samples; the final orbitals are not core.RK4's", len(res.Samples))
			}

			spec.Ranks = 2
			ranked, err := Run(&spec, Options{Ground: res.Ground})
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range res.Samples {
				b := ranked.Samples[i]
				for what, d := range map[string]float64{
					"time": a.TimeFs - b.TimeFs, "energy": a.Energy - b.Energy,
					"current": a.CurrentZ - b.CurrentZ, "excited": a.Excited - b.Excited,
				} {
					if math.Abs(d) > 1e-10 {
						t.Errorf("step %d: %s differs by %g between 1 and 2 ranks, want <= 1e-10", i+1, what, d)
					}
				}
			}
			if d := wavefunc.MaxDiff(res.Psi, ranked.Psi); d > 1e-10 {
				t.Errorf("orbitals differ by %g between 1 and 2 ranks, want <= 1e-10", d)
			}
		})
	}
}
