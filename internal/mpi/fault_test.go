package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// runRaised runs f on size ranks through Run and returns what Run
// panicked with (nil for a clean run), failing the test if Run has not
// returned within the bound: a hang means a peer of an exited rank never
// unblocked.
func runRaised(t *testing.T, size int, within time.Duration, f func(c *Comm)) any {
	t.Helper()
	raised := make(chan any, 1)
	go func() {
		defer func() { raised <- recover() }()
		Run(size, f)
	}()
	select {
	case p := <-raised:
		return p
	case <-time.After(within):
		t.Fatalf("Run had not returned after %v: a peer of an exited rank hangs", within)
		return nil
	}
}

// collective is one call of a collective class, made by every rank.
type collective struct {
	name string
	op   string // how a PeerLostError names the operation
	body func(c *Comm)
}

// collectives is one call of each collective class on a world of size
// ranks, rooted at rank 0 where a root applies.
func collectives(size int) []collective {
	return []collective{
		{"Bcast", "MPI_Bcast receive", func(c *Comm) {
			Bcast(c, 0, 100, make([]complex128, 16))
		}},
		{"AllreduceSum", "MPI_Allreduce receive", func(c *Comm) {
			AllreduceSum(c, 100, make([]float64, 16))
		}},
		{"Alltoallv", "MPI_Alltoallv receive", func(c *Comm) {
			send := make([][]float64, size)
			for i := range send {
				send[i] = make([]float64, 4)
			}
			Alltoallv(c, 100, send)
		}},
		{"Allgatherv", "MPI_AllGatherv receive", func(c *Comm) {
			Allgatherv(c, 100, make([]float64, 4))
		}},
		{"Barrier", "Barrier", func(c *Comm) {
			c.Barrier()
		}},
	}
}

// TestExitedPeerTripsEveryCollective checks peer-loss detection: for each
// collective class, a rank that returns without entering it trips
// ErrPeerLost on every peer - the root never broadcasts or reduces, its
// slice never arrives, it never enters the barrier - and nobody hangs.
// Run then panics with the first peer loss in rank order, whose message
// names the waiting rank, the exited peer and the operation: a rank that
// leaves without sending is a protocol bug, not a recoverable fault.
func TestExitedPeerTripsEveryCollective(t *testing.T) {
	const (
		size   = 4
		silent = 0
	)
	for _, tc := range collectives(size) {
		t.Run(tc.name, func(t *testing.T) {
			lost := make([]any, size)
			p := runRaised(t, size, 5*time.Second, func(c *Comm) {
				if c.Rank() == silent {
					return
				}
				defer func() {
					if lost[c.Rank()] = recover(); lost[c.Rank()] != nil {
						panic(lost[c.Rank()])
					}
				}()
				tc.body(c)
			})
			if p == nil {
				t.Fatalf("%s: expected Run to panic on the peer loss, got a clean run", tc.name)
			}
			for r := 1; r < size; r++ {
				err, _ := lost[r].(error)
				if !errors.Is(err, ErrPeerLost) {
					t.Errorf("%s: rank %d raised %v, which does not match ErrPeerLost", tc.name, r, lost[r])
				}
				var pl *PeerLostError
				if !errors.As(err, &pl) {
					t.Errorf("%s: rank %d raised %T, not a *PeerLostError", tc.name, r, lost[r])
					continue
				}
				if pl.Rank != r || pl.Peer < 0 || pl.Peer >= size || pl.Peer == r {
					t.Errorf("%s: rank %d's error names rank %d waiting on peer %d, want itself on another rank in [0, %d)", tc.name, r, pl.Rank, pl.Peer, size)
				}
			}
			pl, _ := lost[1].(*PeerLostError)
			if pl == nil {
				return
			}
			want := fmt.Sprintf("mpi: rank 1 panicked: mpi: rank 1 lost rank %d (it exited before answering %s", pl.Peer, tc.op)
			if msg := fmt.Sprint(p); !strings.HasPrefix(msg, want) {
				t.Errorf("%s: Run raised %q, want it to start %q", tc.name, msg, want)
			}
		})
	}
}

// TestNonFaultPanicIsStillABug: a rank's own panic is re-raised as the
// root cause, ahead of the peer loss it caused on a lower rank: rank 0
// waits on rank 1's broadcast, rank 1 panics instead of sending, and Run
// names rank 1 and its message, not rank 0's lost peer.
func TestNonFaultPanicIsStillABug(t *testing.T) {
	p := runRaised(t, 2, 5*time.Second, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		Bcast(c, 1, 100, make([]float64, 4))
	})
	if p == nil {
		t.Fatal("expected the bug panic to propagate")
	}
	if want := "mpi: rank 1 panicked: boom"; fmt.Sprint(p) != want {
		t.Fatalf("panic %q, want %q (the original message, on its rank)", p, want)
	}
}

// TestPlainPanicUnblocksEveryCollective: a rank that dies of a plain Go
// panic while its peers enter a collective still closes its mailboxes,
// so the peers unblock and Run re-raises the panic promptly instead of
// hanging the run. Every victim rank of a 3-rank world, every collective
// class.
func TestPlainPanicUnblocksEveryCollective(t *testing.T) {
	const size = 3
	for _, tc := range collectives(size) {
		for victim := 0; victim < size; victim++ {
			t.Run(fmt.Sprintf("%s/rank%d", tc.name, victim), func(t *testing.T) {
				p := runRaised(t, size, 2*time.Second, func(c *Comm) {
					if c.Rank() == victim {
						panic("plain bug")
					}
					tc.body(c)
				})
				want := fmt.Sprintf("mpi: rank %d panicked: plain bug", victim)
				if fmt.Sprint(p) != want {
					t.Fatalf("Run raised %v, want %q", p, want)
				}
			})
		}
	}
}

// TestExitedPeerDeliversWhatItSent: closing an exited rank's mailboxes
// loses none of the messages it sent before exiting. Rank 1 sends on two
// tags and returns; only then does rank 0 receive, and it gets both. A
// third receive, on a tag rank 1 never sent, raises a PeerLostError
// naming rank 1, which Run re-raises; without it, the run is clean.
func TestExitedPeerDeliversWhatItSent(t *testing.T) {
	for _, third := range []bool{false, true} {
		var lost any
		p := runRaised(t, 2, 5*time.Second, func(c *Comm) {
			if c.Rank() == 1 {
				deliver(c, 0, 10, []float64{1}, ClassBcast)
				deliver(c, 0, 11, []float64{2}, ClassBcast)
				return
			}
			defer func() {
				if lost = recover(); lost != nil {
					panic(lost)
				}
			}()
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
			if p != nil {
				t.Errorf("a sender that returned after sending everything failed the run: %v", p)
			}
			continue
		}
		pl, ok := lost.(*PeerLostError)
		if !ok || pl.Rank != 0 || pl.Peer != 1 {
			t.Fatalf("rank 0 raised %v, want a *PeerLostError naming rank 1", lost)
		}
		if want := "mpi: rank 0 panicked: " + pl.Error(); fmt.Sprint(p) != want {
			t.Fatalf("Run raised %v, want %q", p, want)
		}
	}
}

// TestTolerantCleanRun checks a fault-free run returns without a panic
// and with full statistics.
func TestTolerantCleanRun(t *testing.T) {
	st := Run(3, func(c *Comm) {
		AllreduceSum(c, 100, make([]float64, 8))
		c.Barrier()
	})
	if st.Calls[ClassAllreduce] == 0 {
		t.Fatal("statistics missing from a clean run")
	}
}
