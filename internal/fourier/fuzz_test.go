package fourier

import (
	"math"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
)

// FuzzLaneVsScalar is the property pin of the lane-blocked SoA kernel
// layer: for ANY (grid, nb, lane-remainder) shape the slab kernels must
// agree with the scalar []complex128 reference path to 1e-12. The seed
// corpus crosses lane-multiple pencil counts, off-by-one remainders, grids
// smaller than one lane group, axes that are not multiples of lanes.Width,
// and Bluestein lengths (primes above maxDirectRadix); the fuzzer then
// mutates freely inside the capped shape space. The corpus runs as part of
// a plain `go test`, so the property is checked on every CI run; `go test
// -fuzz FuzzLaneVsScalar ./internal/fourier` explores beyond it.
func FuzzLaneVsScalar(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(4), int64(1))
	f.Add(uint8(8), uint8(9), uint8(10), uint8(3), int64(2))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(1), int64(3))
	f.Add(uint8(4), uint8(67), uint8(3), uint8(2), int64(4)) // Bluestein axis: 67 is prime
	f.Add(uint8(1), uint8(16), uint8(5), uint8(6), int64(5)) // single-pencil x, lane-multiple y
	f.Add(uint8(13), uint8(2), uint8(9), uint8(5), int64(6)) // 13 and 9: no lane multiple anywhere
	f.Add(uint8(31), uint8(4), uint8(4), uint8(2), int64(7)) // Bluestein axis: 31 is prime
	f.Add(uint8(3), uint8(3), uint8(3), uint8(1), int64(8))  // smaller than one lane group
	f.Fuzz(func(t *testing.T, bx, by, bz, bnb uint8, seed int64) {
		nx := 1 + int(bx)%67
		ny := 1 + int(by)%67
		nz := 1 + int(bz)%67
		nb := 1 + int(bnb)%6
		n := nx * ny * nz
		if n > 5000 {
			t.Skip("grid too large for a fuzz iteration")
		}
		p := MustPlan3(nx, ny, nz)
		ws := p.NewWorkspace()
		rng := rand.New(rand.NewSource(seed))
		src := randGridRng(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		// The tolerance is absolute against ~N(0,1) inputs; scale it with
		// the magnitude the unnormalized forward transform accumulates.
		tol := 1e-12 * (1 + math.Sqrt(float64(n)))
		check := func(what string, ref []complex128, got lanes.Slab) {
			t.Helper()
			if d := maxDiff(ref, got); d > tol {
				t.Errorf("%dx%dx%d nb=%d kernels=%v: %s lane vs scalar max diff %g (tol %g)", nx, ny, nz, nb, useAVX2, what, d, tol)
			}
		}

		// Every check runs on the Go loops and on the vector kernels.
		forEachVec(func(bool) {
			// Raw transform, forward and inverse.
			for _, inverse := range []bool{false, true} {
				ref := make([]complex128, n)
				p.RawSerialWS(ref, src, inverse, ws)
				s, d := lanes.New(n), lanes.New(n)
				lanes.Pack(s, src)
				p.RawSlabWS(d, s, inverse, ws)
				check("raw transform", ref, d)
			}

			// Fused Poisson solve.
			ref := append([]complex128(nil), src...)
			p.PoissonSerialWS(ref, kernel, ws)
			s := lanes.New(n)
			lanes.Pack(s, src)
			p.PoissonSlabWS(s, kernel, ws)
			check("Poisson", ref, s)

			// nb-band contraction: the fock-style accumulation of nb pair
			// contractions into nb accumulator rows.
			phi := randGridRng(rng, nb*n)
			refAcc := make([]complex128, nb*n)
			buf := make([]complex128, n)
			sphi, sacc, ssrc, sbuf := lanes.New(nb*n), lanes.New(nb*n), lanes.New(n), lanes.New(n)
			lanes.Pack(sphi, phi)
			lanes.Pack(ssrc, src)
			for b := 0; b < nb; b++ {
				row := phi[b*n : (b+1)*n]
				p.ContractSerialWS(refAcc[b*n:(b+1)*n], row, src, buf, kernel, complex(-0.25, 0), ws)
				p.ContractSlabWS(sacc.Row(b, n), sphi.Row(b, n), ssrc, sbuf, kernel, -0.25, ws)
			}
			check("nb-band contraction", refAcc, sacc)

			// Two-sided pair contraction, off-diagonal and diagonal, against a
			// spelled-out scalar oracle (no kernel-symmetry assumption: conj(v)
			// is taken explicitly).
			if nb >= 2 {
				phiI, phiJ := phi[:n], phi[n:2*n]
				v := make([]complex128, n)
				for i := range v {
					v[i] = complex(real(phiI[i]), -imag(phiI[i])) * phiJ[i]
				}
				p.PoissonSerialWS(v, kernel, ws)
				refI := make([]complex128, n)
				refJ := make([]complex128, n)
				for i := range v {
					refJ[i] += -0.25 * phiI[i] * v[i]
					refI[i] += -0.25 * phiJ[i] * complex(real(v[i]), -imag(v[i]))
				}
				accI, accJ := lanes.New(n), lanes.New(n)
				p.ContractPairSlabWS(accI, accJ, sphi.Row(0, n), sphi.Row(1, n), sbuf, kernel, -0.25, false, ws)
				check("pair contraction accJ", refJ, accJ)
				check("pair contraction accI", refI, accI)
			}
			refD := make([]complex128, n)
			p.ContractSerialWS(refD, src, src, buf, kernel, complex(-0.25, 0), ws)
			accD := lanes.New(n)
			p.ContractPairSlabWS(accD, accD, ssrc, ssrc, sbuf, kernel, -0.25, true, ws)
			check("diagonal pair contraction", refD, accD)
		})
	})
}

// FuzzPrunedVsRaw is the property pin of the pruned dense synthesis: for
// ANY grid shape and ANY subset of z-rows, InversePrunedSlabWS on a box that
// is zero outside the subset equals the full RawSlabWS inverse. The corpus
// covers the production dense boxes' shapes in miniature (row counts that
// are and are not multiples of lanes.Width, a single row, every row, a
// Bluestein axis) and runs in a plain `go test`.
func FuzzPrunedVsRaw(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(40), int64(1))
	f.Add(uint8(12), uint8(6), uint8(6), uint8(25), int64(2)) // the 36x18x18 aspect
	f.Add(uint8(5), uint8(7), uint8(3), uint8(128), int64(3))
	f.Add(uint8(4), uint8(67), uint8(3), uint8(30), int64(4))  // Bluestein axis: 67 is prime
	f.Add(uint8(13), uint8(2), uint8(9), uint8(255), int64(5)) // every row listed
	f.Add(uint8(9), uint8(9), uint8(10), uint8(2), int64(6))   // (almost) no row listed
	f.Add(uint8(1), uint8(1), uint8(31), uint8(255), int64(7))
	f.Fuzz(func(t *testing.T, bx, by, bz, bkeep uint8, seed int64) {
		nx := 1 + int(bx)%67
		ny := 1 + int(by)%67
		nz := 1 + int(bz)%67
		if nx*ny*nz > 5000 {
			t.Skip("grid too large for a fuzz iteration")
		}
		p := MustPlan3(nx, ny, nz)
		box, rows, planes := prunedCase(rand.New(rand.NewSource(seed)), p, float64(bkeep)/255)
		forEachVec(func(bool) {
			checkPrunedVsRaw(t, p, box, rows, planes, 1e-12*(1+math.Sqrt(float64(p.Size()))))
		})
	})
}
