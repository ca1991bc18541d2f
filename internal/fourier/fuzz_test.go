package fourier

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/hostcpu"
	"ptdft/internal/lanes"
)

// fuzzDim maps a fuzzed byte onto an axis length in the closed set: the
// {2,3,5,7}-smooth lengths up to 64, a corpus byte b in [1, 64] onto
// NextFast(b) (b itself when b is in the set).
func fuzzDim(b uint8) int { return NextFast(1 + (int(b)+63)%64) }

// FuzzLaneVsScalar is the property pin of the transform layer: for ANY
// (grid, nb, lane-remainder) shape the slab kernels must agree with the
// scalar oracle - the naive O(N^2) DFT of fft_test.go and the manual
// forward, kernel, inverse sequence built from it - to 1e-12 of the
// magnitudes involved. The seed corpus crosses lane-multiple pencil counts,
// off-by-one remainders, grids smaller than one lane group, axes that are
// not multiples of lanes.Width, and axes that stack radix-5 and radix-7
// stages; the fuzzer then mutates freely inside the capped shape space,
// whose 2000-point bound keeps one oracle evaluation to a few
// milliseconds. The corpus runs as part of a plain `go test`, so the
// property is checked on every CI run; `go test -fuzz FuzzLaneVsScalar
// ./internal/fourier` explores beyond it.
func FuzzLaneVsScalar(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(4), int64(1))
	f.Add(uint8(8), uint8(9), uint8(10), uint8(3), int64(2))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(1), int64(3))
	f.Add(uint8(4), uint8(49), uint8(3), uint8(2), int64(4)) // two radix-7 stages
	f.Add(uint8(1), uint8(16), uint8(5), uint8(6), int64(5)) // single-pencil x, lane-multiple y
	f.Add(uint8(21), uint8(2), uint8(9), uint8(5), int64(6)) // 21 and 9: no lane multiple anywhere
	f.Add(uint8(35), uint8(4), uint8(4), uint8(2), int64(7)) // a radix-5 and a radix-7 stage
	f.Add(uint8(3), uint8(3), uint8(3), uint8(1), int64(8))  // smaller than one lane group
	f.Fuzz(func(t *testing.T, bx, by, bz, bnb uint8, seed int64) {
		dims := [3]int{fuzzDim(bx), fuzzDim(by), fuzzDim(bz)}
		nb := 1 + int(bnb)%6
		n := dims[0] * dims[1] * dims[2]
		if n > 2000 {
			t.Skip("grid too large for a fuzz iteration against the O(N^2) oracle")
		}
		p := MustPlan3(dims[0], dims[1], dims[2])
		ws := p.NewWorkspace()
		rng := rand.New(rand.NewSource(seed))
		src := randomVec(rng, n)
		kernel := randKernel(rng, n)
		phi := randomVec(rng, nb*n)

		// The oracle's side, computed once: raw transforms, the Poisson
		// solve, the nb-band contraction (the fock-style accumulation of nb
		// pair contractions into nb accumulator rows), and the two-sided
		// pair contraction with conj(v) taken explicitly (no kernel-symmetry
		// assumption).
		const scale = -0.25
		solve := func(phi, src []complex128) []complex128 { // Poisson[conj(phi) ⊙ src]
			pair := make([]complex128, n)
			for i := range pair {
				pair[i] = cmplx.Conj(phi[i]) * src[i]
			}
			return manualPoisson(pair, kernel, dims)
		}
		contract := func(acc, phi, src []complex128) {
			for i, v := range solve(phi, src) {
				acc[i] += scale * phi[i] * v
			}
		}
		refFwd := naiveDFT3(src, dims[0], dims[1], dims[2], false)
		refInv := naiveDFT3(src, dims[0], dims[1], dims[2], true)
		for i := range refInv {
			refInv[i] *= complex(float64(n), 0)
		}
		refPoisson := manualPoisson(src, kernel, dims)
		refAcc := make([]complex128, nb*n)
		for b := 0; b < nb; b++ {
			contract(refAcc[b*n:(b+1)*n], phi[b*n:(b+1)*n], src)
		}
		refD := make([]complex128, n)
		contract(refD, src, src)
		var refI, refJ []complex128
		if nb >= 2 {
			phiI, phiJ := phi[:n], phi[n:2*n]
			refI, refJ = make([]complex128, n), make([]complex128, n)
			for i, v := range solve(phiI, phiJ) {
				refJ[i] = scale * phiI[i] * v
				refI[i] = scale * phiJ[i] * cmplx.Conj(v)
			}
		}

		// The tolerance is absolute against ~N(0,1) inputs; it scales with
		// the magnitude the unnormalized forward transform accumulates.
		tol := tol3(n)
		check := func(what string, ref []complex128, got lanes.Slab) {
			t.Helper()
			if d := maxDiff(ref, got); d > tol {
				t.Errorf("%v nb=%d kernels=%v: %s lane vs oracle max diff %g (tol %g)", dims, nb, hostcpu.AVX2, what, d, tol)
			}
		}

		// Every check runs on the Go loops and on the vector kernels.
		forEachVec(func(bool) {
			d := lanes.New(n)
			p.RawSlabWS(d, packed(src), false, ws)
			check("forward transform", refFwd, d)
			p.RawSlabWS(d, packed(src), true, ws)
			check("inverse transform", refInv, d)

			s := packed(src)
			p.PoissonSlabWS(s, kernel, ws)
			check("Poisson", refPoisson, s)

			sphi, ssrc := packed(phi), packed(src)
			sacc, sbuf, one := lanes.New(nb*n), lanes.New(lw*n), []*Workspace3{ws}
			pl := PairLanes{N: nb}
			for b := 0; b < nb; b++ {
				pl.A[b], pl.B[b], pl.AccB[b] = sphi.Row(b, n), ssrc, sacc.Row(b, n)
			}
			p.ContractPairsWS(&pl, sbuf, kernel, scale, one)
			check("nb-band contraction", refAcc, sacc)

			if nb >= 2 {
				accI, accJ := lanes.New(n), lanes.New(n)
				pl = PairLanes{N: 1}
				pl.A[0], pl.B[0], pl.AccA[0], pl.AccB[0] = sphi.Row(0, n), sphi.Row(1, n), accI, accJ
				p.ContractPairsWS(&pl, sbuf, kernel, scale, one)
				check("pair contraction accJ", refJ, accJ)
				check("pair contraction accI", refI, accI)
			}
			accD := lanes.New(n)
			pl = PairLanes{N: 1}
			pl.A[0], pl.B[0], pl.AccB[0] = ssrc, ssrc, accD
			p.ContractPairsWS(&pl, sbuf, kernel, scale, one)
			check("diagonal pair contraction", refD, accD)
		})
	})
}

// FuzzPrunedVsRaw is the property pin of the pruned dense synthesis: for
// ANY grid shape and ANY subset of z-rows, AddNorm2PrunedSlabWS on a box
// that is zero outside the subset adds the squared moduli of the full
// RawSlabWS inverse, bit for bit, on the Go loops and on the vector
// kernels. The corpus covers the production dense boxes' shapes in
// miniature (row and x-pencil counts that are and are not multiples of
// lanes.Width, a single row, every row, radix-5 and radix-7 axes), the
// 18x9x9 and 7^3 wave boxes, whose leftover y pencils group across
// x-planes, and runs in a plain `go test`.
func FuzzPrunedVsRaw(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(40), int64(1))
	f.Add(uint8(12), uint8(6), uint8(6), uint8(25), int64(2)) // the 36x18x18 aspect
	f.Add(uint8(5), uint8(7), uint8(3), uint8(128), int64(3))
	f.Add(uint8(4), uint8(49), uint8(3), uint8(30), int64(4))  // two radix-7 stages
	f.Add(uint8(15), uint8(2), uint8(9), uint8(255), int64(5)) // every row listed
	f.Add(uint8(9), uint8(9), uint8(10), uint8(2), int64(6))   // (almost) no row listed
	f.Add(uint8(1), uint8(1), uint8(35), uint8(255), int64(7))
	f.Add(uint8(18), uint8(9), uint8(9), uint8(140), int64(8)) // the 18x9x9 wave box: y groups across planes
	f.Add(uint8(7), uint8(7), uint8(7), uint8(200), int64(9))  // 7^3: six full y groups and one lane
	f.Fuzz(func(t *testing.T, bx, by, bz, bkeep uint8, seed int64) {
		nx, ny, nz := fuzzDim(bx), fuzzDim(by), fuzzDim(bz)
		if nx*ny*nz > 5000 {
			t.Skip("grid too large for a fuzz iteration")
		}
		p := MustPlan3(nx, ny, nz)
		box, rows, planes := prunedCase(rand.New(rand.NewSource(seed)), p, float64(bkeep)/255)
		forEachVec(func(bool) {
			checkPrunedVsRaw(t, p, box, rows, planes)
		})
	})
}

// FuzzPairLanes is the property pin of the pair-lane contraction: for ANY
// grid shape, pair count, lane shape and worker count, ContractPairsWS
// equals its test-side composition (pair product, PoissonSlabWS,
// accumulation lane after lane) bit for bit, on the Go loops and on the
// vector kernels. The corpus runs in a plain `go test`.
func FuzzPairLanes(f *testing.F) {
	f.Add(uint8(9), uint8(9), uint8(9), uint8(8), uint8(0), uint8(1), int64(1))
	f.Add(uint8(7), uint8(7), uint8(7), uint8(5), uint8(2), uint8(2), int64(2))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(1), uint8(1), uint8(3), int64(3))
	f.Add(uint8(18), uint8(9), uint8(9), uint8(3), uint8(3), uint8(1), int64(4))
	f.Add(uint8(1), uint8(16), uint8(35), uint8(7), uint8(2), uint8(4), int64(5))
	f.Fuzz(func(t *testing.T, bx, by, bz, bnp, bshape, bnw uint8, seed int64) {
		p := MustPlan3(fuzzDim(bx), fuzzDim(by), fuzzDim(bz))
		if p.Size() > 5000 {
			t.Skip("grid too large for a fuzz iteration")
		}
		rng := rand.New(rand.NewSource(seed))
		shape := []string{"uniform A", "uniform B", "varying", "diag"}[bshape%4]
		specs, bands, accs := pairCase(rng, p.Size(), 1+int(bnp)%lw, shape)
		kernel := randKernel(rng, p.Size())
		forEachVec(func(vec bool) {
			checkPairsExact(t, p, specs, bands, accs, kernel, 1+int(bnw)%4, fmt.Sprintf("%dx%dx%d %s kernels=%v", p.nx, p.ny, p.nz, shape, vec))
		})
	})
}
