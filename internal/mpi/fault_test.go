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
	start := time.Now()
	_, fail := RunTolerant(size, []CrashRankAt{{Rank: 2, AfterCalls: 5}}, func(c *Comm) {
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
		t.Fatalf("survivors took %v to detect the crash", elapsed)
	}
}

// TestCrashAfterStep fires a crash from the application-level step
// announcement and checks the step attribution in the failure.
func TestCrashAfterStep(t *testing.T) {
	_, fail := RunTolerant(2, []CrashRankAt{{Rank: 1, AfterStep: 3}}, func(c *Comm) {
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

// collective is one call of a collective class, made by every rank.
type collective struct {
	name string
	body func(c *Comm)
}

// collectives is one call of each collective class on a world of size
// ranks, rooted at rank 0 where a root applies.
func collectives(size int) []collective {
	return []collective{
		{"Bcast", func(c *Comm) {
			Bcast(c, 0, 100, make([]complex128, 16))
		}},
		{"AllreduceSum", func(c *Comm) {
			AllreduceSum(c, 100, make([]float64, 16))
		}},
		{"Alltoallv", func(c *Comm) {
			send := make([][]float64, size)
			for i := range send {
				send[i] = make([]float64, 4)
			}
			Alltoallv(c, 100, send)
		}},
		{"Allgatherv", func(c *Comm) {
			Allgatherv(c, 100, make([]float64, 4))
		}},
		{"Barrier", func(c *Comm) {
			c.Barrier()
		}},
	}
}

// TestExitedPeerTripsEveryCollective checks peer-loss detection: for each
// collective class, a rank that returns without entering it trips
// ErrPeerLost on every peer - the root never broadcasts or reduces, its
// slice never arrives, it never enters the barrier - and nobody hangs.
func TestExitedPeerTripsEveryCollective(t *testing.T) {
	const (
		size   = 4
		silent = 0
	)
	for _, tc := range collectives(size) {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, fail := RunTolerant(size, nil, func(c *Comm) {
				if c.Rank() == silent {
					return
				}
				tc.body(c)
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("%s: detection took %v", tc.name, elapsed)
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
	RunTolerant(2, nil, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

// TestPlainPanicUnblocksEveryCollective: a rank that dies of a plain Go
// panic - no injected fault, nothing armed - while its peers enter a
// collective still closes its mailboxes, so the peers unblock and
// RunTolerant re-raises the panic promptly instead of hanging the run.
// Every victim rank of a 3-rank world, every collective class.
func TestPlainPanicUnblocksEveryCollective(t *testing.T) {
	const size = 3
	for _, tc := range collectives(size) {
		for victim := 0; victim < size; victim++ {
			t.Run(fmt.Sprintf("%s/rank%d", tc.name, victim), func(t *testing.T) {
				raised := make(chan any, 1)
				go func() {
					defer func() { raised <- recover() }()
					RunTolerant(size, nil, func(c *Comm) {
						if c.Rank() == victim {
							panic("plain bug")
						}
						tc.body(c)
					})
				}()
				select {
				case p := <-raised:
					want := fmt.Sprintf("mpi: rank %d panicked: plain bug", victim)
					if fmt.Sprint(p) != want {
						t.Fatalf("RunTolerant raised %v, want %q", p, want)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("RunTolerant had not returned after 2 s: the peers of the panicked rank %d hang", victim)
				}
			})
		}
	}
}

// TestExitedPeerDeliversWhatItSent: closing an exited rank's mailboxes
// loses none of the messages it sent before exiting. Rank 1 sends on two
// tags and returns; only then does rank 0 receive, and it gets both. A
// third receive, on a tag rank 1 never sent, raises a PeerLostError
// naming rank 1; without it, nobody fails.
func TestExitedPeerDeliversWhatItSent(t *testing.T) {
	for _, third := range []bool{false, true} {
		_, fail := RunTolerant(2, nil, func(c *Comm) {
			if c.Rank() == 1 {
				deliver(c, 0, 10, []float64{1}, ClassBcast)
				deliver(c, 0, 11, []float64{2}, ClassBcast)
				return
			}
			b := c.w.boxes[1][0]
			b.mu.Lock()
			for !b.closed {
				b.cv.Wait()
			}
			b.mu.Unlock()
			for tag, want := range map[int]float64{10: 1, 11: 2} {
				if got := recvClass[float64](c, 1, tag, ClassBcast); len(got) != 1 || got[0] != want {
					t.Errorf("tag %d: received %v after the sender exited, want [%v]", tag, got, want)
				}
			}
			if third {
				recvClass[float64](c, 1, 12, ClassBcast)
			}
		})
		if !third {
			if fail != nil {
				t.Errorf("a sender that returned after sending everything failed the run: %v", fail)
			}
			continue
		}
		if fail == nil || len(fail.Crashed) != 0 || fmt.Sprint(fail.PeerLost) != "[0]" {
			t.Fatalf("failure %+v, want rank 0 peer-lost and no crash", fail)
		}
		var pl *PeerLostError
		if !errors.As(fail.Errs[0], &pl) || pl.Rank != 0 || pl.Peer != 1 {
			t.Fatalf("rank 0 error %v, want a *PeerLostError naming rank 1", fail.Errs[0])
		}
	}
}

// TestTolerantCleanRun checks a fault-free tolerant run - no crash list
// or an empty one - returns nil Failure and full statistics.
func TestTolerantCleanRun(t *testing.T) {
	for _, crashes := range [][]CrashRankAt{nil, {}} {
		st, fail := RunTolerant(3, crashes, func(c *Comm) {
			AllreduceSum(c, 100, make([]float64, 8))
			c.Barrier()
		})
		if fail != nil {
			t.Fatalf("crashes %v: unexpected failure: %v", crashes, fail)
		}
		if st.Calls[ClassAllreduce] == 0 {
			t.Fatalf("crashes %v: statistics missing from clean tolerant run", crashes)
		}
	}
}
