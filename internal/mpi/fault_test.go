package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCrashAfterCalls kills one rank at its N-th metered operation mid
// collective traffic and checks the tolerant runner reports the crash and
// the survivors' peer-loss aborts instead of hanging or crashing the test
// process.
func TestCrashAfterCalls(t *testing.T) {
	const size = 4
	p := &Perturb{
		Deadline: 200 * time.Millisecond,
		Fault:    &Fault{Crashes: []CrashRankAt{{Rank: 2, AfterCalls: 5}}},
	}
	start := time.Now()
	_, fail := RunTolerant(size, p, func(c *Comm) {
		buf := make([]float64, 8)
		for i := 0; i < 20; i++ {
			AllreduceSum(c, 100+2*i, buf)
		}
	})
	if fail == nil {
		t.Fatal("expected a Failure, got clean run")
	}
	if len(fail.Crashed) != 1 || fail.Crashed[0] != 2 {
		t.Fatalf("Crashed = %v, want [2]", fail.Crashed)
	}
	var rf *RankFailure
	if !errors.As(fail.Errs[2], &rf) {
		t.Fatalf("rank 2 error = %T %v, want *RankFailure", fail.Errs[2], fail.Errs[2])
	}
	for _, r := range fail.PeerLost {
		if !errors.Is(fail.Errs[r], ErrPeerLost) {
			t.Errorf("rank %d error %v does not match ErrPeerLost", r, fail.Errs[r])
		}
	}
	if len(fail.Crashed)+len(fail.PeerLost) > size {
		t.Fatalf("more failures than ranks: %v + %v", fail.Crashed, fail.PeerLost)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("survivors took %v to detect the crash (deadline 200ms)", elapsed)
	}
}

// TestCrashAfterStep fires a crash from the application-level step
// announcement and checks the step attribution in the failure.
func TestCrashAfterStep(t *testing.T) {
	p := &Perturb{
		Deadline: 200 * time.Millisecond,
		Fault:    &Fault{Crashes: []CrashRankAt{{Rank: 1, AfterStep: 3}}},
	}
	_, fail := RunTolerant(2, p, func(c *Comm) {
		buf := make([]float64, 4)
		for step := int64(0); step < 10; step++ {
			c.StepReached(step)
			AllreduceSum(c, 100, buf)
		}
	})
	if fail == nil || len(fail.Crashed) != 1 || fail.Crashed[0] != 1 {
		t.Fatalf("fail = %+v, want rank 1 crashed", fail)
	}
	if !strings.Contains(fail.Errs[1].Error(), "step 3") {
		t.Fatalf("crash error %q does not name step 3", fail.Errs[1])
	}
}

// TestDeadlineTripsEveryCollective checks the peer-loss detection
// satellite: for each collective class, a rank that never answers trips
// ErrPeerLost on every peer within the deadline - nobody hangs.
func TestDeadlineTripsEveryCollective(t *testing.T) {
	const (
		size     = 4
		silent   = 0
		deadline = 150 * time.Millisecond
	)
	cases := []struct {
		name string
		body func(c *Comm)
	}{
		{"Bcast", func(c *Comm) {
			buf := make([]complex128, 16)
			Bcast(c, silent, 100, buf) // root never broadcasts
		}},
		{"AllreduceSum", func(c *Comm) {
			buf := make([]float64, 16)
			AllreduceSum(c, 100, buf) // rank 0 never reduces or rebroadcasts
		}},
		{"Alltoallv", func(c *Comm) {
			send := make([][]float64, size)
			for i := range send {
				send[i] = make([]float64, 4)
			}
			Alltoallv(c, 100, send) // slice from rank 0 never arrives
		}},
		{"Allgatherv", func(c *Comm) {
			Allgatherv(c, 100, make([]float64, 4))
		}},
		{"Barrier", func(c *Comm) {
			c.Barrier() // rank 0 never enters
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, fail := RunTolerant(size, &Perturb{Deadline: deadline}, func(c *Comm) {
				if c.Rank() == silent {
					return
				}
				tc.body(c)
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("%s: detection took %v (deadline %v)", tc.name, elapsed, deadline)
			}
			if fail == nil {
				t.Fatalf("%s: expected peer-loss failures, got clean run", tc.name)
			}
			if len(fail.Crashed) != 0 {
				t.Fatalf("%s: unexpected crashes %v", tc.name, fail.Crashed)
			}
			want := []int{1, 2, 3}
			if fmt.Sprint(fail.PeerLost) != fmt.Sprint(want) {
				t.Fatalf("%s: PeerLost = %v, want %v (every peer)", tc.name, fail.PeerLost, want)
			}
			for _, r := range want {
				if !errors.Is(fail.Errs[r], ErrPeerLost) {
					t.Errorf("%s: rank %d error %v does not match ErrPeerLost", tc.name, r, fail.Errs[r])
				}
				var pl *PeerLostError
				if !errors.As(fail.Errs[r], &pl) {
					t.Errorf("%s: rank %d error is not a *PeerLostError", tc.name, r)
					continue
				}
				if pl.Wait != deadline {
					t.Errorf("%s: reported wait %v, want %v", tc.name, pl.Wait, deadline)
				}
				if pl.Peer < 0 || pl.Peer >= size || pl.Peer == r {
					t.Errorf("%s: rank %d names peer %d, want another rank in [0, %d)", tc.name, r, pl.Peer, size)
				}
			}
		})
	}
}

// TestNonFaultPanicIsStillABug checks programming-error panics are not
// swallowed by the tolerant runner.
func TestNonFaultPanicIsStillABug(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected the bug panic to propagate")
		}
		if !strings.Contains(fmt.Sprint(p), "boom") {
			t.Fatalf("panic %q lost the original message", p)
		}
	}()
	RunTolerant(2, &Perturb{Deadline: 100 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

// TestTolerantCleanRun checks a fault-free tolerant run returns nil
// Failure and full statistics.
func TestTolerantCleanRun(t *testing.T) {
	st, fail := RunTolerant(3, nil, func(c *Comm) {
		AllreduceSum(c, 100, make([]float64, 8))
		c.Barrier()
	})
	if fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
	if st.Calls[ClassAllreduce] == 0 {
		t.Fatal("statistics missing from clean tolerant run")
	}
}
