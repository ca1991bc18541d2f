// Hard-fault injection and failure detection for the goroutine MPI
// runtime: rank crashes (a panic with a typed RankFailure), and a rank
// exit that closes the exited rank's outgoing mailboxes, so a peer waiting
// on it raises a loud PeerLostError instead of hanging forever. The model
// mirrors what a ULFM-style MPI gives a fault-tolerant application: a
// failed rank stops participating, survivors learn about it from the
// operations that can no longer complete, and the job-level supervisor
// (the attempt loop of sim.Run) tears the world down and relaunches from a
// checkpoint.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// CrashRankAt schedules the hard failure of one rank. Exactly one of the
// two triggers should be set:
//
//   - AfterCalls > 0 kills the rank the moment its N-th metered
//     communication operation (sends of any class - the operations
//     counted in Stats.Calls) begins, before the payload is
//     delivered. This lands crashes at arbitrary, phase-unaligned points
//     inside collectives.
//   - AfterStep > 0 kills the rank when the application announces that
//     propagation step via Comm.StepReached, i.e. at a step boundary.
//
// A crash is a panic with a *RankFailure value; Run re-raises it,
// RunTolerant reports it in the returned Failure. Crash lists are
// per-run: a supervisor that relaunches the world passes a fresh (usually
// empty) list for the retry attempt.
type CrashRankAt struct {
	Rank       int
	AfterCalls int64
	AfterStep  int64
}

// RankFailure is the panic value of an injected rank crash. It satisfies
// error so supervisors can report it directly.
type RankFailure struct {
	Rank int
	At   string // e.g. "communication call 37" or "step 12"
}

func (f *RankFailure) Error() string {
	return fmt.Sprintf("mpi: rank %d crashed (%s)", f.Rank, f.At)
}

// ErrPeerLost is the sentinel matched by errors.Is for peer-loss
// detection failures.
var ErrPeerLost = errors.New("mpi: peer lost")

// PeerLostError is the panic value raised by a receive (Barrier's
// included) whose peer exited - returned or panicked - without sending
// the message it waits for. It wraps ErrPeerLost.
type PeerLostError struct {
	Rank int    // the detecting rank
	Peer int    // the exited peer it was waiting on
	Op   string // the operation that can no longer complete
	Dead []int  // ranks already known crashed at detection time
}

func (e *PeerLostError) Error() string {
	msg := fmt.Sprintf("mpi: rank %d lost rank %d (it exited before answering %s)", e.Rank, e.Peer, e.Op)
	if len(e.Dead) > 0 {
		msg += fmt.Sprintf("; known dead: %v", e.Dead)
	}
	return msg
}

func (e *PeerLostError) Unwrap() error { return ErrPeerLost }

// isFault reports whether a recovered panic value is an injected-fault
// signal (*RankFailure or *PeerLostError) rather than a programming bug.
func isFault(p any) bool {
	switch p.(type) {
	case *RankFailure, *PeerLostError:
		return true
	}
	return false
}

// Failure describes how a tolerant run went down: which ranks crashed by
// injection and which aborted after losing a peer. It satisfies error.
type Failure struct {
	Crashed  []int         // ranks that died from an injected crash
	PeerLost []int         // ranks that aborted on a peer's exit
	Errs     map[int]error // the per-rank failure detail
}

func (f *Failure) Error() string {
	var parts []string
	for _, r := range f.Crashed {
		parts = append(parts, f.Errs[r].Error())
	}
	if len(f.PeerLost) > 0 {
		parts = append(parts, fmt.Sprintf("ranks %v aborted on peer loss", f.PeerLost))
	}
	return strings.Join(parts, "; ")
}

// RunTolerant executes f on size ranks like Run, injecting the scheduled
// crashes (nil: none), but recovers injected-fault panics (RankFailure,
// PeerLostError) instead of re-raising them: if any rank failed, the
// returned Failure lists the crashed and peer-lost ranks. A nil Failure
// means the run completed cleanly on every rank. Non-fault panics are
// still programming bugs and are re-raised with rank attribution. Stats
// are returned in either case (for a failed run they meter the truncated
// traffic).
//
// When a rank goroutine exits, by return or by any panic, its outgoing
// mailboxes close: a peer waiting on it for a message it never sent
// raises PeerLostError and exits in turn, so every wait chain that ends
// at an exited rank unwinds at once.
func RunTolerant(size int, crashes []CrashRankAt, f func(c *Comm)) (*Stats, *Failure) {
	if size < 1 {
		panic("mpi: communicator size must be >= 1")
	}
	w := newWorld(size)
	w.crashes = crashes
	var wg sync.WaitGroup
	panics := make([]any, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
				}
				for _, b := range w.boxes[rank] {
					b.close()
				}
			}()
			f(&Comm{rank: rank, w: w})
		}(r)
	}
	wg.Wait()
	for r, pv := range panics {
		if pv != nil && !isFault(pv) {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r, pv))
		}
	}
	st := &Stats{
		sent: make([][numClasses]int64, size),
		recv: make([][numClasses]int64, size),
	}
	for i := 0; i < int(numClasses); i++ {
		st.Bytes[i] = w.bytes[i].Load()
		st.Calls[i] = w.calls[i].Load()
		for r := 0; r < size; r++ {
			st.sent[r][i] = w.sent[r][i].Load()
			st.recv[r][i] = w.recv[r][i].Load()
		}
	}
	var fail *Failure
	note := func(r int, err error, crashed bool) {
		if fail == nil {
			fail = &Failure{Errs: map[int]error{}}
		}
		if _, seen := fail.Errs[r]; seen {
			return
		}
		fail.Errs[r] = err
		if crashed {
			fail.Crashed = append(fail.Crashed, r)
		} else {
			fail.PeerLost = append(fail.PeerLost, r)
		}
	}
	for r := 0; r < size; r++ {
		// The crash ledger exists for PeerLostError.Dead. A crash is
		// recorded there before it panics, so it names the rank even if
		// f recovered that panic itself.
		if rf := w.failed[r].Load(); rf != nil {
			note(r, rf, true)
			continue
		}
		switch pv := panics[r].(type) {
		case *RankFailure:
			note(r, pv, true)
		case *PeerLostError:
			note(r, pv, false)
		}
	}
	if fail != nil {
		sort.Ints(fail.Crashed)
		sort.Ints(fail.PeerLost)
	}
	return st, fail
}

// StepReached announces that this rank is about to execute propagation
// step `step` (cumulative, 0-based). It is the trigger point for
// CrashRankAt.AfterStep faults and a no-op without scheduled crashes.
func (c *Comm) StepReached(step int64) {
	for _, cr := range c.w.crashes {
		if cr.Rank == c.rank && cr.AfterStep > 0 && step >= cr.AfterStep {
			c.crash(fmt.Sprintf("step %d", step))
		}
	}
}

// maybeCrashOnCall advances this rank's metered-operation counter and
// fires any AfterCalls crash that lands on it. Called at the head of
// every metered communication operation, before the payload moves.
func (c *Comm) maybeCrashOnCall() {
	if len(c.w.crashes) == 0 {
		return
	}
	n := c.w.opCalls[c.rank].Add(1)
	for _, cr := range c.w.crashes {
		if cr.Rank == c.rank && cr.AfterCalls > 0 && n == cr.AfterCalls {
			c.crash(fmt.Sprintf("communication call %d", n))
		}
	}
}

// crash records this rank as dead and raises the typed failure panic.
func (c *Comm) crash(at string) {
	f := &RankFailure{Rank: c.rank, At: at}
	c.w.failed[c.rank].Store(f)
	panic(f)
}

// lostPeer raises the peer-loss panic for an operation whose peer exited.
func (c *Comm) lostPeer(peer int, op string) {
	panic(&PeerLostError{Rank: c.rank, Peer: peer, Op: op, Dead: c.w.deadRanks()})
}

// deadRanks snapshots the ranks known to have crashed.
func (w *world) deadRanks() []int {
	var dead []int
	for r := range w.failed {
		if w.failed[r].Load() != nil {
			dead = append(dead, r)
		}
	}
	return dead
}
