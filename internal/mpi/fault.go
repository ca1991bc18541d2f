// Hard-fault injection and failure detection for the goroutine MPI
// runtime: rank crashes (a panic with a typed RankFailure) and a
// receive/barrier deadline that turns a peer that went silent into a loud
// PeerLostError instead of an eternal hang. The model mirrors what a
// ULFM-style MPI gives a fault-tolerant application: a failed rank stops
// participating, survivors learn about it from timed-out operations, and
// the job-level supervisor (the attempt loop of sim.Run) tears the world
// down and relaunches from a checkpoint.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultDeadline is the peer-loss detection deadline applied when a
// Perturb carries a Fault but no explicit Deadline: long enough that a
// healthy run never trips it, short enough that tests and the recovery
// supervisor are not stuck for minutes behind a dead rank.
const DefaultDeadline = 10 * time.Second

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
// RunTolerant reports it in the returned Failure.
type CrashRankAt struct {
	Rank       int
	AfterCalls int64
	AfterStep  int64
}

// Fault is the hard-failure injection plan of one run: scheduled rank
// crashes.
type Fault struct {
	// Crashes lists the scheduled rank failures. Faults are per-run: a
	// supervisor that relaunches the world passes a fresh (usually empty)
	// Fault for the retry attempt.
	Crashes []CrashRankAt
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

// PeerLostError is the panic value raised by a receive or barrier that
// waited past the configured deadline: the peer is presumed dead. It
// wraps ErrPeerLost.
type PeerLostError struct {
	Rank int           // the detecting rank
	Peer int           // the silent peer, or -1 when unattributable (barrier)
	Op   string        // the operation that timed out
	Wait time.Duration // how long it waited
	Dead []int         // ranks already known crashed at detection time
}

func (e *PeerLostError) Error() string {
	who := "a peer"
	if e.Peer >= 0 {
		who = fmt.Sprintf("rank %d", e.Peer)
	}
	msg := fmt.Sprintf("mpi: rank %d lost %s (%s gave no answer within %v)", e.Rank, who, e.Op, e.Wait)
	if len(e.Dead) > 0 {
		msg += fmt.Sprintf("; known dead: %v", e.Dead)
	}
	return msg
}

func (e *PeerLostError) Unwrap() error { return ErrPeerLost }

// IsFault reports whether a recovered panic value is an injected-fault
// signal (*RankFailure or *PeerLostError) rather than a programming bug.
// Helper goroutines that run communication off the rank's main goroutine
// use it to forward fault panics instead of killing the process.
func IsFault(p any) bool {
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
	PeerLost []int         // ranks that aborted on a peer-loss deadline
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

// RunTolerant executes f on size ranks like Run, under the perturbation
// model p (nil: none), but recovers injected-fault panics (RankFailure,
// PeerLostError) instead of re-raising them: if any rank failed, the
// returned Failure lists the crashed and peer-lost ranks. A nil Failure
// means the run completed cleanly on every rank. Non-fault panics are
// still programming bugs and are re-raised with rank attribution. Stats
// are returned in either case (for a failed run they meter the truncated
// traffic).
//
// When p carries a Fault but no Deadline, DefaultDeadline is applied so
// surviving ranks always unblock: RunTolerant only returns once every
// rank goroutine has exited.
func RunTolerant(size int, p *Perturb, f func(c *Comm)) (*Stats, *Failure) {
	if size < 1 {
		panic("mpi: communicator size must be >= 1")
	}
	w := newWorld(size)
	if p != nil {
		w.deadline = p.Deadline
		if w.fault = p.Fault; w.fault != nil && w.deadline == 0 {
			w.deadline = DefaultDeadline
		}
	}
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
			}()
			f(&Comm{rank: rank, w: w})
		}(r)
	}
	wg.Wait()
	for r, pv := range panics {
		if pv != nil && !IsFault(pv) {
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
		// The crash ledger also catches a crash raised on a helper
		// goroutine sharing the rank's Comm, whose panic the rank's
		// main goroutine never sees.
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
// CrashRankAt.AfterStep faults and a no-op without an armed Fault.
func (c *Comm) StepReached(step int64) {
	ft := c.w.fault
	if ft == nil {
		return
	}
	for _, cr := range ft.Crashes {
		if cr.Rank == c.rank && cr.AfterStep > 0 && step >= cr.AfterStep {
			c.crash(fmt.Sprintf("step %d", step))
		}
	}
}

// maybeCrashOnCall advances this rank's metered-operation counter and
// fires any AfterCalls crash that lands on it. Called at the head of
// every metered communication operation, before the payload moves.
func (c *Comm) maybeCrashOnCall() {
	ft := c.w.fault
	if ft == nil {
		return
	}
	n := c.w.opCalls[c.rank].Add(1)
	for _, cr := range ft.Crashes {
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

// lostPeer raises the peer-loss panic for a timed-out operation.
func (c *Comm) lostPeer(peer int, op string, wait time.Duration) {
	panic(&PeerLostError{Rank: c.rank, Peer: peer, Op: op, Wait: wait, Dead: c.w.deadRanks()})
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
