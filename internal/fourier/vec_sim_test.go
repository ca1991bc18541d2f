package fourier_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptdft/internal/fourier"
	"ptdft/internal/parallel"
	"ptdft/internal/sim"
)

// TestVecKernelsSameTrajectory is the end-to-end face of
// TestVecKernelsBitIdentical and linalg's TestBandProductsBitIdentical: the
// benchmark's three solver rows and its job row's spec, ground state and
// four steps each at one worker, hash to the same samples and final
// orbitals on the Go loops and on the vector kernels (ForEachVec turns the
// FFT and the band-block kernels off and on together) - and to the pinned
// hash, which holds the step path's bits across any rewrite of the
// transforms and the band-block products under it. A third run at two workers must hash
// the same: every sum of the step path is ordered by the data, never by
// the worker count (the exchange's pair-lane calls split their passes by
// pencil, so each accumulator element takes its adds on one worker).
//
// The pins apply on amd64 hosts with AVX2 and FMA whose build does not fuse
// multiply-add in Go code: the butterflies round the same under any build,
// but the rest of the step path does not - arm64 and GOAMD64=v3 builds fuse
// its plain a*b+c, and math.Exp takes an FMA branch on CPUs with AVX and
// FMA. A change that is meant to move bits regenerates them: run this test
// with the pins blanked and copy the hashes it reports.
func TestVecKernelsSameTrajectory(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	pinned := runtime.GOARCH == "amd64" && fourier.HostHasAVX2() && !fourier.GoFusesMulAdd()
	rows := []struct {
		name string
		spec sim.Spec
		pin  string
	}{
		{"semilocal_serial_si16", sim.Spec{Cells: [3]int{2, 1, 1}, Ecut: 3, Kick: 0.02}, "653e7df16c248db6"},
		{"exact_2rank_si8", sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3, Hybrid: true, Ranks: 2, Exchange: "overlap", Kick: 0.02}, "8128bd0e55205213"},
		{"ace_mts_2rank_si8e6", sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 6, Hybrid: true, ACE: true, MTS: 4, Ranks: 2, Exchange: "overlap", PulseE0: 0.01}, "b7dd54a91371b383"},
		// The job row's 7^3 wave and 14^3 dense boxes: the radix-7 kernel.
		{"ptdftd_jobs", sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, Kick: 0.02}, "a6a88c25ca1be2c2"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func() string {
				spec := row.spec
				spec.Steps, spec.DtAs, spec.Seed = 4, 24, 19
				if err := spec.Validate(); err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(&spec, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return hashResult(res)
			}
			var hashes []string
			fourier.ForEachVec(func(bool) { hashes = append(hashes, run()) })
			if len(hashes) == 2 && hashes[0] != hashes[1] {
				t.Errorf("trajectory differs: Go loops %s, vector kernels %s", hashes[0], hashes[1])
			}
			parallel.SetMaxWorkers(2)
			if h := run(); h != hashes[0] {
				t.Errorf("trajectory differs: one worker %s, two workers %s", hashes[0], h)
			}
			parallel.SetMaxWorkers(1)
			if pinned && hashes[0] != row.pin {
				t.Errorf("trajectory hash %s, pinned %s", hashes[0], row.pin)
			}
		})
	}
}

func hashResult(res *sim.Result) string {
	h := sha256.New()
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	for _, s := range res.Samples {
		put(s.TimeFs, s.Energy, s.CurrentZ, s.Excited, float64(s.SCFIters))
	}
	for _, c := range res.Psi {
		put(real(c), imag(c))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
