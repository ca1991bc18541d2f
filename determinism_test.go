// Run-to-run reproducibility: the same spec, solved from its seed and
// propagated twice in one process, must give the same bytes. Every
// "≡ to 1e-10" pin in the tree compares two such runs, and Si8's degenerate
// bands turn one ULP of noise in rho into an O(1) rotation inside the
// occupied subspace - so any reduction that sums in goroutine arrival order
// shows up here first, and only here.
package ptdft_test

import (
	"fmt"
	"math"
	"testing"

	"ptdft/internal/parallel"
	"ptdft/internal/sim"
)

func TestRunToRunBitIdentical(t *testing.T) {
	// Each row must also give the same bits at one and two workers: no sum
	// is ordered by the worker count (the exchange's pair-lane calls split
	// their passes by pencil, so every accumulator element takes its adds on
	// one worker).
	specs := []struct {
		name string
		spec sim.Spec
	}{
		{"serial LDA", sim.Spec{
			Cells: [3]int{1, 1, 1}, Ecut: 2, DtAs: 24, Steps: 3, Kick: 0.02, Seed: 7,
		}},
		{"2-rank hybrid ACE MTS", sim.Spec{
			Cells: [3]int{1, 1, 1}, Ecut: 2, DtAs: 24, Steps: 4, Kick: 0.02, Seed: 7,
			Hybrid: true, ACE: true, MTS: 2, Ranks: 2, Exchange: "overlap",
		}},
		// A stored record still names its schedule; overlap is the one left.
		{"2-rank exact overlap", sim.Spec{
			Cells: [3]int{1, 1, 1}, Ecut: 2, DtAs: 24, Steps: 2, Kick: 0.02, Seed: 7,
			Hybrid: true, Ranks: 2, Exchange: "overlap",
		}},
	}
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	run := func(t *testing.T, spec sim.Spec) *sim.Result {
		t.Helper()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(&spec, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != spec.Steps {
			t.Fatalf("%d samples, want %d", len(res.Samples), spec.Steps)
		}
		return res
	}
	for _, tc := range specs {
		var atOneWorker *sim.Result
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers %d", tc.name, workers), func(t *testing.T) {
				parallel.SetMaxWorkers(workers)
				a := run(t, tc.spec)
				sameBits(t, a, run(t, tc.spec))
				if workers == 1 {
					atOneWorker = a
				} else if atOneWorker != nil {
					sameBits(t, atOneWorker, a)
				}
			})
		}
	}
}

// sameBits fails unless two results carry the same final orbitals and the
// same samples, bit for bit.
func sameBits(t *testing.T, a, b *sim.Result) {
	t.Helper()
	if len(a.Psi) != len(b.Psi) || len(a.Samples) != len(b.Samples) {
		t.Fatalf("shape differs: %d/%d orbitals coefficients, %d/%d samples", len(a.Psi), len(b.Psi), len(a.Samples), len(b.Samples))
	}
	for i := range a.Psi {
		if math.Float64bits(real(a.Psi[i])) != math.Float64bits(real(b.Psi[i])) ||
			math.Float64bits(imag(a.Psi[i])) != math.Float64bits(imag(b.Psi[i])) {
			t.Fatalf("final Psi differs at coefficient %d: %v vs %v", i, a.Psi[i], b.Psi[i])
		}
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		x.WallSec, y.WallSec = 0, 0 // the one field that is a clock reading
		if x != y {
			t.Fatalf("sample %d differs:\n  %+v\n  %+v", i, x, y)
		}
	}
}
