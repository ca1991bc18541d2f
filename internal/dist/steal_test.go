package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ptdft/internal/fock"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// TestStealScheduleProperty fuzzes the pair schedule: for random (nb,
// ranks, chunk, interleaving seed), simulating the claim protocol must
// execute every pair exactly once, and every (pair, target band)
// contribution must land in exactly one accumulator slot - no drops, no
// double counts - regardless of which rank claims what in which order.
func TestStealScheduleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		nb := 1 + rng.Intn(20)
		ranks := 1 + rng.Intn(8)
		if ranks > nb {
			ranks = nb
		}
		rect := rng.Intn(2) == 1
		chunkReq := rng.Intn(6) // 0 = auto
		npairs := stealPairCount(nb, rect)
		pi := make([]int32, npairs)
		pj := make([]int32, npairs)
		stealFillPairs(nb, rect, pi, pj)

		// The pair tables themselves: readiness-ordered, covering the
		// expected set exactly once.
		seen := map[[2]int32]int{}
		maxBand := int32(-1)
		for p := 0; p < npairs; p++ {
			i, j := pi[p], pj[p]
			if i < 0 || j < 0 || int(i) >= nb || int(j) >= nb {
				t.Fatalf("trial %d: pair %d = (%d,%d) out of range", trial, p, i, j)
			}
			if !rect && i > j {
				t.Fatalf("trial %d: triangle pair %d = (%d,%d) not ordered", trial, p, i, j)
			}
			m := i
			if j > m {
				m = j
			}
			if m < maxBand {
				t.Fatalf("trial %d: pair %d breaks readiness order (max band %d after %d)", trial, p, m, maxBand)
			}
			maxBand = m
			seen[[2]int32{i, j}]++
		}
		if len(seen) != npairs {
			t.Fatalf("trial %d: %d distinct pairs, want %d", trial, len(seen), npairs)
		}

		// Simulate the claim protocol under a random rank interleaving.
		chunk := stealChunkSize(npairs, ranks, chunkReq)
		if chunk < 1 {
			t.Fatalf("trial %d: chunk %d", trial, chunk)
		}
		nchunks := (npairs + chunk - 1) / chunk
		counter := 0
		claimedBy := make([]int, npairs)
		for i := range claimedBy {
			claimedBy[i] = -1
		}
		live := rng.Perm(ranks)
		for len(live) > 0 {
			k := rng.Intn(len(live))
			r := live[k]
			tkt := counter
			counter++
			if tkt >= nchunks {
				live = append(live[:k], live[k+1:]...)
				continue
			}
			lo, hi := tkt*chunk, (tkt+1)*chunk
			if hi > npairs {
				hi = npairs
			}
			for p := lo; p < hi; p++ {
				if claimedBy[p] != -1 {
					t.Fatalf("trial %d: pair %d claimed by both rank %d and rank %d", trial, p, claimedBy[p], r)
				}
				claimedBy[p] = r
			}
		}
		if counter != nchunks+ranks {
			t.Fatalf("trial %d: %d tickets drawn, want %d chunks + %d overshoots", trial, counter, nchunks, ranks)
		}

		// Accumulation ownership: each pair contributes to its target
		// band(s) through exactly one slot - the claimer's local
		// accumulator when it owns the band, else the claimer's staged
		// row, which the reduce folds into the owner exactly once.
		type slot struct{ rank, band int }
		contrib := map[slot]map[[2]int32]int{}
		owner := func(b int) int {
			for r := 0; r < ranks; r++ {
				lo := r * nb / ranks
				hi := (r + 1) * nb / ranks
				if b >= lo && b < hi {
					return r
				}
			}
			t.Fatalf("band %d unowned", b)
			return -1
		}
		for p := 0; p < npairs; p++ {
			if claimedBy[p] == -1 {
				t.Fatalf("trial %d: pair %d never claimed", trial, p)
			}
			targets := []int32{pj[p]}
			if !rect && pi[p] != pj[p] {
				targets = append(targets, pi[p])
			}
			for _, b := range targets {
				s := slot{rank: claimedBy[p], band: int(b)}
				if contrib[s] == nil {
					contrib[s] = map[[2]int32]int{}
				}
				contrib[s][[2]int32{pi[p], pj[p]}]++
			}
		}
		for s, pairs := range contrib {
			for pr, n := range pairs {
				if n != 1 {
					t.Fatalf("trial %d: pair %v folded %d times into slot %v", trial, pr, n, s)
				}
			}
			_ = owner(s.band) // every staged band has a well-defined reduce owner
		}
	}
}

// TestStealClaimStress drives the real claim machinery - WorkQueueTicket,
// FetchAdd, the overshoot-retire protocol - across repeated epochs and
// perturbed GOMAXPROCS values, asserting exactly-once chunk coverage every
// time. Runs under -race in CI.
func TestStealClaimStress(t *testing.T) {
	for _, procs := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			for _, size := range []int{2, 3, 8} {
				nchunks := 97
				epochs := 20
				claims := make([][]atomic.Int32, epochs)
				for e := range claims {
					claims[e] = make([]atomic.Int32, nchunks)
				}
				mpi.Run(size, func(c *mpi.Comm) {
					for e := 0; e < epochs; e++ {
						key := c.WorkQueueTicket()
						for {
							tkt := int(c.FetchAdd(key, 1))
							if tkt >= nchunks {
								if tkt == nchunks+size-1 {
									c.ForgetCounter(key)
								}
								break
							}
							claims[e][tkt].Add(1)
						}
					}
				})
				for e := range claims {
					for i := range claims[e] {
						if n := claims[e][i].Load(); n != 1 {
							t.Fatalf("procs=%d size=%d epoch %d: chunk %d claimed %d times", procs, size, e, i, n)
						}
					}
				}
			}
		}()
	}
}

// TestStealMatchesBcast is the cross-schedule equivalence pin: the dynamic
// schedule must reproduce the static bcast result to 1e-12 across rank
// counts, wire precisions, distinct reference/target blocks (the rectangle
// schedule) and chunk granularities - and, since the claim order is
// whatever the race produces, the result is order-independent by
// construction of the test.
func TestStealMatchesBcast(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	phi := wavefunc.Random(g, nb, 11) // distinct reference block for the rectangle case

	run := func(ranks int, opt ExchangeOptions, sameRef bool, p *mpi.Perturb) []complex128 {
		out := make([]complex128, nb*g.NG)
		mpi.RunPerturbed(ranks, p, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			lo, hi := d.BandRange(c.Rank())
			localPsi := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
			localPhi := localPsi
			if !sameRef {
				localPhi = wavefunc.Clone(phi[lo*g.NG : hi*g.NG])
			}
			vx := d.FockExchange(localPhi, localPsi, kernel, hyb.Alpha, opt)
			full := d.Gather(vx)
			if c.Rank() == 0 {
				copy(out, full)
			}
		})
		return out
	}

	for _, ranks := range []int{1, 2, 4} {
		for _, single := range []bool{false, true} {
			for _, sameRef := range []bool{true, false} {
				name := fmt.Sprintf("ranks%d_single%v_same%v", ranks, single, sameRef)
				t.Run(name, func(t *testing.T) {
					want := run(ranks, ExchangeOptions{Strategy: BcastSequential, SinglePrecision: single}, sameRef, nil)
					for _, chunk := range []int{0, 1, 3} {
						got := run(ranks, ExchangeOptions{Strategy: Steal, SinglePrecision: single, StealChunk: chunk}, sameRef, nil)
						if diff := wavefunc.MaxDiff(got, want); diff > 1e-12 {
							t.Errorf("chunk=%d: steal differs from bcast by %g", chunk, diff)
						}
					}
				})
			}
		}
	}

	// Injected stragglers and NIC delay reshuffle who claims what; the
	// result must not move.
	t.Run("straggler", func(t *testing.T) {
		p := &mpi.Perturb{
			ComputeScale: func(rank int) float64 {
				if rank == 0 {
					return 3.0
				}
				return 1.0
			},
			WireDelay: func(src, dst int, bytes int64) time.Duration {
				if src == 1 || dst == 1 {
					return 200 * time.Microsecond
				}
				return 0
			},
		}
		want := run(4, ExchangeOptions{Strategy: BcastSequential}, true, nil)
		got := run(4, ExchangeOptions{Strategy: Steal, StealChunk: 1}, true, p)
		if diff := wavefunc.MaxDiff(got, want); diff > 1e-12 {
			t.Errorf("steal under stragglers differs from unperturbed bcast by %g", diff)
		}
	})
}

// TestStealMatchesBcastACE extends the equivalence through the compressed
// operator: Xi built under the steal schedule must act like Xi built under
// bcast. The Cholesky factorization of the ACE build can amplify the
// accumulation-order round-off of its input by a few orders, hence the
// 1e-10 tolerance (the same bound TestDistACEExactOnReference uses).
func TestStealMatchesBcastACE(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	for _, ranks := range []int{1, 2, 4} {
		aceApply := func(opt ExchangeOptions) []complex128 {
			out := make([]complex128, nb*g.NG)
			mpi.Run(ranks, func(c *mpi.Comm) {
				d, err := NewCtx(c, g, nb, 2)
				if err != nil {
					t.Error(err)
					return
				}
				lo, hi := d.BandRange(c.Rank())
				local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
				a := d.NewACE()
				if err := a.Rebuild(local, nil, kernel, hyb.Alpha, opt, d.NewExchangeWorkspace()); err != nil {
					t.Error(err)
					return
				}
				got := make([]complex128, len(local))
				a.Apply(got, local)
				full := d.Gather(got)
				if c.Rank() == 0 {
					copy(out, full)
				}
			})
			return out
		}
		want := aceApply(ExchangeOptions{Strategy: BcastSequential})
		got := aceApply(ExchangeOptions{Strategy: Steal})
		if diff := wavefunc.MaxDiff(got, want); diff > 1e-10 {
			t.Errorf("ranks=%d: ACE built under steal differs from bcast-built by %g", ranks, diff)
		}
	}
}

// TestExchangePipelinesDoNotInflateVolume: broadcast-ahead changes when
// payloads move, never how much moves. The overlapped pipeline must bill
// exactly the sequential strategy's bytes, and the steal pipeline must
// bill exactly the sequential Bcast volume for its reference distribution.
func TestExchangePipelinesDoNotInflateVolume(t *testing.T) {
	g, psi, nb := testGrid(t)
	run := func(opt ExchangeOptions) *mpi.Stats {
		_, _, stats := applyExchange(t, g, psi, nb, 4, opt, false)
		return stats
	}
	seq := run(ExchangeOptions{Strategy: BcastSequential})
	ovl := run(ExchangeOptions{Strategy: BcastOverlapped})
	if ovl.TotalBytes() != seq.TotalBytes() {
		t.Errorf("overlapped pipeline ships %d bytes, sequential %d", ovl.TotalBytes(), seq.TotalBytes())
	}
	sl := run(ExchangeOptions{Strategy: Steal})
	if sl.BytesFor(mpi.ClassBcast) != seq.BytesFor(mpi.ClassBcast) {
		t.Errorf("steal broadcast-ahead ships %d Bcast bytes, sequential %d", sl.BytesFor(mpi.ClassBcast), seq.BytesFor(mpi.ClassBcast))
	}
	// All three return their mirrored rows through the same stage: one
	// Alltoallv of one sphere row per band a rank does not own.
	for _, st := range []*mpi.Stats{seq, ovl, sl} {
		if got, want := st.BytesFor(mpi.ClassAlltoallv), int64(4*(nb-nb/4)*g.NG*16); got != want {
			t.Errorf("return stage ships %d Alltoallv bytes, want %d", got, want)
		}
	}
}

// TestStealBalancesStragglers is the load-balance smoke check behind the
// benchmark claim: with one 4x straggler on four ranks, the dynamic
// schedule finishes the exchange measurably faster than the static
// pipeline on the identical workload. (The quantitative 1.3x bound on
// eight ranks is regenerated by `summitsim -experiment sched`.)
func TestStealBalancesStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	p := &mpi.Perturb{ComputeScale: func(rank int) float64 {
		if rank == 0 {
			return 4.0
		}
		return 1.0
	}}
	wall := func(opt ExchangeOptions) time.Duration {
		var el atomic.Int64
		mpi.RunPerturbed(4, p, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			lo, hi := d.BandRange(c.Rank())
			local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
			ex := d.NewExchangeWorkspace()
			d.FockExchangeWS(local, local, kernel, hyb.Alpha, opt, ex) // warm
			c.Barrier()
			t0 := time.Now()
			for rep := 0; rep < 3; rep++ {
				d.FockExchangeWS(local, local, kernel, hyb.Alpha, opt, ex)
			}
			c.Barrier()
			if c.Rank() == 0 {
				el.Store(int64(time.Since(t0)))
			}
		})
		return time.Duration(el.Load())
	}
	static := wall(ExchangeOptions{Strategy: BcastOverlapped})
	steal := wall(ExchangeOptions{Strategy: Steal})
	if float64(static) < 1.05*float64(steal) {
		t.Errorf("steal (%v) not faster than overlap (%v) under a 4x straggler", steal, static)
	}
}

// TestFetchPipelineForwardsFaults: a crash landing inside the
// overlapped-broadcast or steal fetch goroutine (which runs mpi calls off
// the rank's main goroutine) must be forwarded to the main goroutine and
// recovered by the tolerant runner - not kill the process, not hang.
func TestFetchPipelineForwardsFaults(t *testing.T) {
	g, psi, nb := testGrid(t)
	hyb := xc.HSE06()
	kernel := fock.BuildKernel(g, hyb)
	for _, strat := range []ExchangeStrategy{BcastOverlapped, Steal} {
		p := &mpi.Perturb{
			Deadline: 1 * time.Second,
			Fault:    &mpi.Fault{Crashes: []mpi.CrashRankAt{{Rank: 1, AfterCalls: 3}}},
		}
		start := time.Now()
		_, fail := mpi.RunTolerant(4, p, func(c *mpi.Comm) {
			d, err := NewCtx(c, g, nb, 2)
			if err != nil {
				t.Error(err)
				return
			}
			lo, hi := d.BandRange(c.Rank())
			local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])
			d.FockExchange(local, local, kernel, hyb.Alpha, ExchangeOptions{Strategy: strat})
		})
		if elapsed := time.Since(start); elapsed > 20*time.Second {
			t.Fatalf("%v: exchange under injected crash took %v", strat, elapsed)
		}
		if fail == nil {
			t.Fatalf("%v: injected crash vanished", strat)
		}
		found := false
		for _, r := range fail.Crashed {
			if r == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: crashed ranks %v do not include rank 1", strat, fail.Crashed)
		}
	}
}
