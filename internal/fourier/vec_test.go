package fourier

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ptdft/internal/hostcpu"
	"ptdft/internal/lanes"
)

// forEachVec runs fn on the Go loops and then, where init found AVX2, on the
// vector kernels, and puts hostcpu.AVX2 back. The switch is shared, so both
// kernel sets - this package's and internal/linalg's - go off and on
// together. Tests in this package do not run in parallel, so flipping it is
// safe.
func forEachVec(fn func(vec bool)) {
	host := hostcpu.AVX2
	defer func() { hostcpu.AVX2 = host }()
	hostcpu.AVX2 = false
	fn(false)
	if host {
		hostcpu.AVX2 = true
		fn(true)
	}
}

// goFusesMulAdd reports whether this build rounds a Go x*y + z once
// (GOAMD64=v3 lets gc emit VFMADD). The butterflies cannot tell - combineLanes
// spells every fusion out as math.FMA and forbids the rest with float64(...),
// so the oracle comparison holds on any build - but the step path beyond
// them (math.Exp, the solvers) can, and TestVecKernelsSameTrajectory's pins
// apply only where it does not fuse.
func goFusesMulAdd() bool {
	x, y, z := fuseProbe[0], fuseProbe[1], fuseProbe[2]
	return x*y+z != 0
}

// (1+2^-30)(1-2^-30) = 1 - 2^-60 rounds to 1, so the unfused sum with -1 is
// exactly 0 and the fused one is -2^-60. A variable, so nothing folds.
var fuseProbe = [3]float64{1 + 1.0/(1<<30), 1 - 1.0/(1<<30), -1}

func skipUnlessBothPaths(t *testing.T) {
	t.Helper()
	if !hostcpu.AVX2 {
		t.Skip("host has no AVX2 and FMA (or GOARCH is not amd64): the Go loops are the only path, nothing to compare")
	}
}

func randLaneSlab(rng *rand.Rand, n int) lanes.Slab {
	s := lanes.New(n)
	for i := 0; i < n; i++ {
		s.Re[i] = rng.NormFloat64()
		s.Im[i] = rng.NormFloat64()
	}
	return s
}

func cloneSlab(s lanes.Slab) lanes.Slab {
	return lanes.Slab{Re: append([]float64(nil), s.Re...), Im: append([]float64(nil), s.Im...)}
}

// sameBits compares with ==: a NaN anywhere fails, and no transform of
// finite data produces one.
func sameBits(t *testing.T, what string, goPath, vec lanes.Slab) {
	t.Helper()
	for i := range goPath.Re {
		if goPath.Re[i] != vec.Re[i] || goPath.Im[i] != vec.Im[i] {
			t.Errorf("%s: element %d: Go loops (%v, %v), kernels (%v, %v)", what, i, goPath.Re[i], goPath.Im[i], vec.Re[i], vec.Im[i])
			return
		}
	}
}

// TestVecKernelsBitIdentical is the pin under the vector kernels: with the
// package variable flipped in place, every transform the step runs gives the
// same float64s from the Go loops and from bfly_amd64.s.
func TestVecKernelsBitIdentical(t *testing.T) {
	skipUnlessBothPaths(t)
	rng := rand.New(rand.NewSource(19))

	// 1-D: every length of the closed set up to 128 (radix 2, 3, 4, 5 and
	// 7 stages in every order the planner builds; 49 is a plan of radix-7
	// kernels alone, and 35 mixes one with radix 5, which stays on the Go
	// loop on both paths).
	var lengths []int
	for n := 1; n <= 128; n++ {
		if IsFast(n) {
			lengths = append(lengths, n)
		}
	}
	for _, n := range lengths {
		p := MustPlan(n)
		src := randLaneSlab(rng, n*lw)
		for _, inverse := range []bool{false, true} {
			var out []lanes.Slab // Go loops, then kernels
			forEachVec(func(bool) { out = append(out, laneTransform(p, src, inverse)) })
			sameBits(t, fmt.Sprintf("transformLanes n=%d inverse=%v", n, inverse), out[0], out[1])
		}
	}

	// The permuted row gather on its own, at an offset and a stride, with
	// every fast length's table.
	for _, n := range lengths {
		p := MustPlan(n)
		src := randLaneSlab(rng, 5+n*11)
		var out []lanes.Slab
		forEachVec(func(bool) {
			b := lanes.New(n * lw)
			gatherStrided(b, src, 5, 11, lw, p)
			out = append(out, b)
		})
		sameBits(t, fmt.Sprintf("gatherStrided n=%d", n), out[0], out[1])
	}

	// The squared-modulus accumulation and the z pass's transposing gather
	// and scatter on their own: every fast row length, a whole lane group
	// of rows (the kernels' case) and a partial one (the Go loops').
	for _, n := range lengths {
		b, acc0 := randLaneSlab(rng, n*lw), randLaneSlab(rng, 5+n*11)
		var out []lanes.Slab
		forEachVec(func(bool) {
			acc := cloneSlab(acc0)
			addNorm2Strided(acc.Re, b, 5, n, 11, lw)
			addNorm2Strided(acc.Im, b, 5, n, 11, 3)
			out = append(out, acc)
		})
		sameBits(t, fmt.Sprintf("addNorm2Strided n=%d", n), out[0], out[1])
		p := MustPlan3(3, 4, n) // 12 rows: one group of Width, one of 4
		src := randLaneSlab(rng, p.Size())
		for _, inverse := range []bool{false, true} {
			out = out[:0]
			forEachVec(func(bool) {
				d := lanes.New(p.Size())
				p.zPassSlab(d, src, nil, inverse, p.NewWorkspace())
				out = append(out, d)
			})
			sameBits(t, fmt.Sprintf("zPassSlab nz=%d inverse=%v", n, inverse), out[0], out[1])
		}
		checkListedPasses(t, rng, n)
	}

	// 3-D: the slab entry points on the production boxes, wave and dense:
	// Si16/Ecut 3, Si8/Ecut 6, Si8/Ecut 3 and Si8/Ecut 2 (the job row's
	// radix-7 boxes).
	for _, dims := range [][3]int{{18, 9, 9}, {36, 18, 18}, {12, 12, 12}, {24, 24, 24}, {9, 9, 9}, {18, 18, 18}, {7, 7, 7}, {14, 14, 14}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		ws := p.NewWorkspace()
		src, phi := randLaneSlab(rng, n), randLaneSlab(rng, n)
		acc0 := randLaneSlab(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		box, rows, planes := prunedCase(rng, p, 0.15)
		pruned := lanes.New(n)
		lanes.Pack(pruned, box)

		ops := []struct {
			name string
			run  func() []lanes.Slab
		}{
			{"RawSlabWS forward", func() []lanes.Slab {
				d := lanes.New(n)
				p.RawSlabWS(d, src, false, ws)
				return []lanes.Slab{d}
			}},
			{"RawSlabWS inverse in place", func() []lanes.Slab {
				d := cloneSlab(src)
				p.RawSlabWS(d, d, true, ws)
				return []lanes.Slab{d}
			}},
			{"AddNorm2PrunedSlabWS", func() []lanes.Slab {
				acc := cloneSlab(acc0)
				p.AddNorm2PrunedSlabWS(acc.Re, cloneSlab(pruned), rows, planes, ws)
				return []lanes.Slab{acc}
			}},
			{"PoissonSlabWS", func() []lanes.Slab {
				d := cloneSlab(src)
				p.PoissonSlabWS(d, kernel, ws)
				return []lanes.Slab{d}
			}},
			{"ContractPairsWS uniform B", func() []lanes.Slab {
				d := cloneSlab(acc0)
				pl := PairLanes{N: 3}
				for l := 0; l < 3; l++ {
					pl.A[l], pl.B[l], pl.AccB[l] = phi, src, d
				}
				p.ContractPairsWS(&pl, lanes.New(lw*n), kernel, -0.25, []*Workspace3{ws})
				return []lanes.Slab{d}
			}},
			{"ContractPairsWS two-sided", func() []lanes.Slab {
				accI, accJ := cloneSlab(acc0), cloneSlab(acc0)
				pl := PairLanes{N: lw}
				for l := range pl.A {
					pl.A[l], pl.B[l], pl.AccA[l], pl.AccB[l] = phi, src, accI, accJ
				}
				p.ContractPairsWS(&pl, lanes.New(lw*n), kernel, -0.25, []*Workspace3{ws})
				return []lanes.Slab{accI, accJ}
			}},
			{"ContractPairsWS diag", func() []lanes.Slab {
				accJ := cloneSlab(acc0)
				pl := PairLanes{N: 1}
				pl.A[0], pl.B[0], pl.AccB[0] = phi, phi, accJ
				p.ContractPairsWS(&pl, lanes.New(lw*n), kernel, -0.25, []*Workspace3{ws})
				return []lanes.Slab{accJ}
			}},
		}
		for _, op := range ops {
			var out [][]lanes.Slab // Go loops, then kernels
			forEachVec(func(bool) { out = append(out, op.run()) })
			for i := range out[0] {
				sameBits(t, fmt.Sprintf("%v %s output %d", dims, op.name, i), out[0][i], out[1][i])
			}
		}
	}
}

// checkListedPasses holds the listed forms of the y and z passes, whose
// lane groups run across the list rather than inside a plane or a block
// of rows, to the full passes on both paths, at z length nz: the y pass
// over x-planes {0, 2, 3} of five (their leftover pencils group across
// the planes unless nz is a multiple of Width) and the z pass over 19 of
// 24 rows in random order (two full groups of scattered rows, one
// partial). Listed pencils must equal the full pass's, the rest keep their
// input, and the Go loops and the kernels must agree.
func checkListedPasses(t *testing.T, rng *rand.Rand, nz int) {
	t.Helper()
	py := MustPlan3(5, 6, nz)
	planes := []int{0, 2, 3}
	pz := MustPlan3(3, 8, nz)
	rows := rng.Perm(24)[:19]
	ysrc, zsrc, zdst := randLaneSlab(rng, py.Size()), randLaneSlab(rng, pz.Size()), randLaneSlab(rng, pz.Size())
	for _, inverse := range []bool{false, true} {
		var ys, zs []lanes.Slab
		forEachVec(func(vec bool) {
			got, full := cloneSlab(ysrc), cloneSlab(ysrc)
			py.yPassSlab(got, planes, inverse, py.NewWorkspace())
			py.yPassSlab(full, nil, inverse, py.NewWorkspace())
			want := cloneSlab(ysrc)
			for _, ix := range planes {
				plane := ix * 6 * nz
				copy(want.Re[plane:plane+6*nz], full.Re[plane:])
				copy(want.Im[plane:plane+6*nz], full.Im[plane:])
			}
			sameBits(t, fmt.Sprintf("yPassSlab planes %v nz=%d inverse=%v kernels=%v vs the full pass", planes, nz, inverse, vec), want, got)
			ys = append(ys, got)

			got, full = cloneSlab(zdst), lanes.New(pz.Size())
			pz.zPassSlab(got, zsrc, rows, inverse, pz.NewWorkspace())
			pz.zPassSlab(full, zsrc, nil, inverse, pz.NewWorkspace())
			want = cloneSlab(zdst)
			for _, r := range rows {
				copy(want.Re[r*nz:(r+1)*nz], full.Re[r*nz:])
				copy(want.Im[r*nz:(r+1)*nz], full.Im[r*nz:])
			}
			sameBits(t, fmt.Sprintf("zPassSlab rows %v nz=%d inverse=%v kernels=%v vs the full pass", rows, nz, inverse, vec), want, got)
			zs = append(zs, got)
		})
		if len(ys) == 2 {
			sameBits(t, fmt.Sprintf("yPassSlab planes %v nz=%d inverse=%v", planes, nz, inverse), ys[0], ys[1])
			sameBits(t, fmt.Sprintf("zPassSlab rows %v nz=%d inverse=%v", rows, nz, inverse), zs[0], zs[1])
		}
	}
}

// TestTrivialTwiddles pins what the butterflies' k = 0 skip and radix 4's
// sign swap rest on: in every stage of every closed-set length up to 128,
// both directions, the k = 0 twiddle of every sub-transform q is exactly
// 1 + 0i, and a radix-4 stage's root[1] is exactly -i forward and +i
// inverse. Skipping a multiply by 1 + 0i, or applying ∓i as a swap of parts
// and signs, then changes at most the sign of a zero.
func TestTrivialTwiddles(t *testing.T) {
	for n := 1; n <= 128; n++ {
		if !IsFast(n) {
			continue
		}
		for d, st := range MustPlan(n).stages {
			for _, dir := range []struct {
				name        string
				twim, rooti []float64
				want        float64
			}{{"forward", st.twFim, st.rootFim, -1}, {"inverse", st.twIim, st.rootIim, 1}} {
				for q := 0; q < st.r; q++ {
					if re, im := st.twRe[q*st.m], dir.twim[q*st.m]; re != 1 || im != 0 {
						t.Errorf("n=%d stage %d (radix %d) %s: tw[%d*m] = %v + %vi, want 1 + 0i", n, d, st.r, dir.name, q, re, im)
					}
				}
				if st.r == 4 && (st.rootRe[1] != 0 || dir.rooti[1] != dir.want) {
					t.Errorf("n=%d stage %d %s: radix-4 root[1] = %v + %vi, want %vi", n, d, dir.name, st.rootRe[1], dir.rooti[1], dir.want)
				}
			}
		}
	}
}

// TestVecBoundsPanic feeds each path what the assembly must never see - a
// slab with a short Im half, a short twiddle table, a strided source,
// destination or accumulator that ends before the last row, a permutation
// table shorter than the block, z-rows short of the grid, a listed z-row or
// a lane past its source or destination, a pair operand or
// accumulator short of the grid, more pairs than lanes - and requires the
// Go loops and the kernel wrappers alike to panic before touching memory
// they do not own; and NewPlan's check, the one the kernels rest on, to
// reject a digit reversal that is no permutation.
func TestVecBoundsPanic(t *testing.T) {
	cases := []struct {
		name string
		run  func()
	}{
		{"short Im", func() {
			p := MustPlan3(8, 8, 8)
			s := lanes.New(p.Size())
			s.Im = s.Im[:p.Size()-1]
			p.RawSlabWS(s, s, false, p.NewWorkspace())
		}},
		{"short twiddle table", func() { shortTwiddles(12) }},
		{"short radix-5 twiddle table", func() { shortTwiddles(10) }},
		{"short radix-7 twiddle table", func() { shortTwiddles(14) }},
		{"short lane block", func() {
			p := MustPlan(12)
			p.transformLanes(lanes.Slab{Re: make([]float64, 12*lw), Im: make([]float64, 12*lw-1)}, false)
		}},
		{"short strided source", func() {
			gatherStrided(lanes.New(4*lw), lanes.New(3*20+lw-1), 0, 20, lw, MustPlan(4))
		}},
		{"short permutation table", func() {
			gatherStrided(lanes.New(4*lw), lanes.New(3*20+lw), 0, 20, lw, &Plan{n: 4, perm: []int{0, 2, 1}})
		}},
		{"digit reversal past its length", func() { checkPerm([]int{0, 2, 1, 4}) }},
		{"digit reversal with a repeat", func() { checkPerm([]int{0, 2, 2, 1}) }},
		{"short strided destination", func() {
			scatterStrided(lanes.Slab{Re: make([]float64, 3*20+lw), Im: make([]float64, 3*20+lw-1)}, lanes.New(4*lw), 0, 4, 20, lw)
		}},
		{"short strided accumulator", func() {
			addNorm2Strided(make([]float64, 3*20+lw-1), lanes.New(4*lw), 0, 4, 20, lw)
		}},
		{"z rows: short source Im", func() {
			p := MustPlan3(2, 4, 9)
			src := lanes.New(p.Size())
			src.Im = shortSlice(src.Im)
			p.zPassSlab(lanes.New(p.Size()), src, nil, false, p.NewWorkspace())
		}},
		{"z rows: short destination Re", func() {
			p := MustPlan3(2, 4, 9)
			dst := lanes.New(p.Size())
			dst.Re = shortSlice(dst.Re)
			p.zPassSlab(dst, lanes.New(p.Size()), nil, false, p.NewWorkspace())
		}},
		{"z rows: a listed row past the source", func() {
			p := MustPlan3(2, 4, 9)
			p.zPassSlab(lanes.New(p.Size()+9), lanes.New(p.Size()), []int{0, 1, 2, 3, 4, 5, 6, 8}, false, p.NewWorkspace())
		}},
		{"z rows: a listed row past the destination", func() {
			p := MustPlan3(2, 4, 9)
			p.zPassSlab(lanes.New(p.Size()), lanes.New(p.Size()+9), []int{0, 1, 2, 3, 4, 5, 6, 8}, false, p.NewWorkspace())
		}},
		{"lanes: a lane past the source", func() {
			bases := [lw]int{0, 1, 2, 3, 40, 41, 42, 44}
			gatherLanes(lanes.New(4*lw), lanes.New(3*20+44), &bases, 20, lw, MustPlan(4))
		}},
		{"lanes: a lane past the destination", func() {
			bases := [lw]int{0, 1, 2, 3, 40, 41, 42, 44}
			scatterLanes(lanes.New(3*20+44), lanes.New(4*lw), &bases, 4, 20, lw)
		}},
		{"pair products: short operand Im", func() {
			pairPassCase(0, func(pl *PairLanes) { pl.B[3].Im = shortSlice(pl.B[3].Im) })
		}},
		{"pair accumulations: short accumulator", func() {
			pairPassCase(4, func(pl *PairLanes) { pl.AccA[5].Re = shortSlice(pl.AccA[5].Re) })
		}},
		{"pair accumulations: more lanes than Width", func() { pairPassCase(4, func(pl *PairLanes) { pl.N = lw + 1 }) }},
	}
	for _, tc := range cases {
		forEachVec(func(vec bool) {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s (vector kernels %v): no panic", tc.name, vec)
				}
				// The pair, z-row and lane kernels' wrappers panic with
				// their own message; a runtime error there would be the
				// kernel faulting.
				wrapped := strings.HasPrefix(tc.name, "pair") || strings.HasPrefix(tc.name, "z rows") || strings.HasPrefix(tc.name, "lanes")
				if _, msg := r.(string); vec && wrapped && !msg {
					t.Errorf("%s (vector kernels): %v, not the wrapper's panic", tc.name, r)
				}
			}()
			tc.run()
		})
	}
}

// pairPassCase runs pass 0 (the pair products) or 4 (the accumulations)
// of an 8-pair contraction on a 9^3 grid after spoil has damaged its lanes,
// past ContractPairsWS's own checks.
func pairPassCase(pass int, spoil func(*PairLanes)) {
	p := MustPlan3(9, 9, 9)
	n := p.Size()
	pl := &PairLanes{N: lw}
	for l := range pl.A {
		pl.A[l], pl.B[l], pl.AccA[l], pl.AccB[l] = lanes.New(n), lanes.New(n), lanes.New(n), lanes.New(n)
	}
	spoil(pl)
	p.pairPass(pass, pl, lanes.New(lw*n), make([]float64, n), 1, 0, 1, p.NewWorkspace())
}

// shortSlice drops the last element of s, capacity included, so that the
// Go loops' slicing fails where the wrappers' length checks do.
func shortSlice(s []float64) []float64 { return s[: len(s)-1 : len(s)-1] }

// shortTwiddles runs an n-point plan whose top stage (the largest radix)
// lost the last entry of its twiddle table.
func shortTwiddles(n int) {
	p := MustPlan(n)
	st := &p.stages[0]
	st.twRe = st.twRe[:len(st.twRe)-1]
	p.transformLanes(lanes.New(n*lw), false)
}

// BenchmarkTransformLanes times one lane-block transform (Width pencils) as
// a pass runs it - the gather into perm order and the in-place stage loop -
// at the production axis lengths on each path this host has, per transform
// and per point; it is the number to look at first when touching the stage
// loop or a kernel.
func BenchmarkTransformLanes(b *testing.B) {
	for _, n := range []int{5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 21, 24, 28, 36} {
		p := MustPlan(n)
		src, blk := randLaneSlab(rand.New(rand.NewSource(1)), n*lw), lanes.New(n*lw)
		forEachVec(func(vec bool) {
			b.Run(fmt.Sprintf("n=%d/kernels=%v", n, vec), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gatherStrided(blk, src, 0, lw, lw, p)
					p.transformLanes(blk, i&1 == 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
		})
	}
}
