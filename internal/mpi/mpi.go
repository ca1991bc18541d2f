// Package mpi is a message-passing runtime over goroutines that stands in
// for IBM Spectrum MPI in the reproduction: ranks execute SPMD functions on
// their own goroutines and communicate through tag-matched mailboxes. It
// provides the collectives the paper's implementation is built from -
// MPI_Bcast (binomial tree), MPI_Allreduce, MPI_Alltoallv and
// MPI_Allgatherv - and it meters bytes and calls per collective class so
// the communication volumes of Table 2 can be measured from the
// functional code rather than estimated.
//
// Tags separate message streams. The distributed code issues every call
// from its rank's own goroutine, a fixed tag per call site; a Comm handle
// may still be used from several goroutines of its rank as long as
// concurrent receives use distinct tags (the mailboxes and meters are
// synchronised).
//
// Tag namespace: each (src, dst, tag) triple identifies a message stream;
// AllreduceSum internally consumes tag and tag+1, and negative tags are
// reserved (Barrier).
package mpi

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"ptdft/internal/trace"
)

// Elem constrains the payload element types the runtime ships.
type Elem interface {
	~complex128 | ~complex64 | ~float64 | ~float32 | ~int64 | ~int32
}

// OpClass labels collective classes for the byte accounting of Table 2.
type OpClass int

// Collective classes.
const (
	ClassBcast OpClass = iota
	ClassAllreduce
	ClassAlltoallv
	ClassAllgatherv
	numClasses
)

// String names the class as the paper's tables do.
func (c OpClass) String() string {
	switch c {
	case ClassBcast:
		return "MPI_Bcast"
	case ClassAllreduce:
		return "MPI_Allreduce"
	case ClassAlltoallv:
		return "MPI_Alltoallv"
	case ClassAllgatherv:
		return "MPI_AllGatherv"
	default:
		return "unknown"
	}
}

// Stats aggregates communication volume per class across all ranks, with a
// per-rank breakdown on both the send and the receive side so conservation
// laws (every byte shipped is a byte received; a broadcast moves exactly
// (P-1) payloads; Alltoallv send and receive totals match) can be asserted
// from the metered numbers instead of trusted.
type Stats struct {
	Bytes [numClasses]int64
	Calls [numClasses]int64
	sent  [][numClasses]int64 // bytes shipped, indexed by source rank
	recv  [][numClasses]int64 // bytes received, indexed by destination rank
}

// TotalBytes sums all classes.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// BytesFor returns the byte count of one class.
func (s *Stats) BytesFor(c OpClass) int64 { return s.Bytes[c] }

// CommMatrix is the JSON heat-map form of the per-rank ledgers: one row
// per rank, one column per collective class, on both the send and the
// receive side. Rendered as a heat map it shows which ranks carry the
// communication load (rank 0 dominates the receive side of the rank-
// ordered Allreduce, broadcast roots dominate the send side, ...).
type CommMatrix struct {
	Ranks      int       `json:"ranks"`
	Classes    []string  `json:"classes"`
	SentBytes  [][]int64 `json:"sent_bytes"` // [rank][class]
	RecvBytes  [][]int64 `json:"recv_bytes"` // [rank][class]
	TotalBytes int64     `json:"total_bytes"`
}

// Matrix exports the per-rank send/recv ledgers as a heat-map matrix.
func (s *Stats) Matrix() CommMatrix {
	m := CommMatrix{
		Ranks:      len(s.sent),
		Classes:    make([]string, int(numClasses)),
		SentBytes:  make([][]int64, len(s.sent)),
		RecvBytes:  make([][]int64, len(s.recv)),
		TotalBytes: s.TotalBytes(),
	}
	for c := 0; c < int(numClasses); c++ {
		m.Classes[c] = OpClass(c).String()
	}
	for r := range s.sent {
		m.SentBytes[r] = append([]int64(nil), s.sent[r][:]...)
		m.RecvBytes[r] = append([]int64(nil), s.recv[r][:]...)
	}
	return m
}

// MatrixJSON renders the heat-map matrix as indented JSON, the form the
// -commfile flag dumps and EXPERIMENTS.md records.
func (s *Stats) MatrixJSON() ([]byte, error) {
	return json.MarshalIndent(s.Matrix(), "", " ")
}

// pairBox is the mailbox for one (src, dst) rank pair: a tag-indexed FIFO
// store guarded by a condition variable, safe for concurrent senders and
// receivers. It is closed when its source rank exits.
type pairBox struct {
	mu     sync.Mutex
	cv     *sync.Cond
	msgs   map[int][]any
	closed bool
}

func newPairBox() *pairBox {
	b := &pairBox{msgs: map[int][]any{}}
	b.cv = sync.NewCond(&b.mu)
	return b
}

func (b *pairBox) put(tag int, data any) {
	b.mu.Lock()
	b.msgs[tag] = append(b.msgs[tag], data)
	b.cv.Broadcast()
	b.mu.Unlock()
}

// close marks the source rank as exited and wakes every waiter.
func (b *pairBox) close() {
	b.mu.Lock()
	b.closed = true
	b.cv.Broadcast()
	b.mu.Unlock()
}

// take pops the next message for tag, blocking until one arrives. It
// returns ok=false (the peer-loss detection path) only when the box is
// closed with no message left for tag: what the source sent before it
// exited is still delivered.
func (b *pairBox) take(tag int) (any, bool) {
	b.mu.Lock()
	for len(b.msgs[tag]) == 0 && !b.closed {
		b.cv.Wait()
	}
	q := b.msgs[tag]
	if len(q) == 0 {
		b.mu.Unlock()
		return nil, false
	}
	data := q[0]
	if len(q) == 1 {
		delete(b.msgs, tag)
	} else {
		b.msgs[tag] = q[1:]
	}
	b.mu.Unlock()
	return data, true
}

// world is the shared state of one communicator group.
type world struct {
	size  int
	boxes [][]*pairBox // boxes[src][dst]
	bytes [numClasses]atomic.Int64
	calls [numClasses]atomic.Int64
	sent  [][numClasses]atomic.Int64 // per source rank
	recv  [][numClasses]atomic.Int64 // per destination rank

	// Hard-fault state (see fault.go): the scheduled crashes, per-rank
	// metered-operation counters for AfterCalls crashes, and the crash
	// ledger.
	crashes []CrashRankAt
	opCalls []atomic.Int64
	failed  []atomic.Pointer[RankFailure]
}

// Comm is one rank's handle on the communicator. It is safe for concurrent
// use by multiple goroutines of that rank (distinct tags per concurrent
// receive stream).
type Comm struct {
	rank int
	w    *world
	tr   *trace.Track // span timeline of this rank; nil = tracing disabled
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.size }

// SetTrace attaches a span track to this handle: every metered operation
// then records wait spans (blocked in a receive or Barrier) and transfer
// spans (payload shipped, with byte counts matching the Stats ledgers)
// under the operation's class name. A nil track disables recording.
func (c *Comm) SetTrace(t *trace.Track) { c.tr = t }

// Trace returns the handle's span track (nil when tracing is disabled),
// so layers built on the Comm can record their own spans on the same
// per-rank timeline without extra plumbing.
func (c *Comm) Trace() *trace.Track { return c.tr }

// Run executes f on size ranks (one goroutine each) and returns the
// accumulated communication statistics. It panics if any rank panics,
// re-raising the first failure; use RunTolerant with scheduled crashes
// to observe injected faults as a value instead.
func Run(size int, f func(c *Comm)) *Stats {
	st, fail := RunTolerant(size, nil, f)
	if fail != nil {
		panic("mpi: run failed: " + fail.Error())
	}
	return st
}

func elemSize[T Elem]() int64 {
	var z T
	switch any(z).(type) {
	case complex128:
		return 16
	case complex64, float64, int64:
		return 8
	case float32, int32:
		return 4
	default:
		return 8
	}
}

// accountTransfer meters one operation shipping `bytes` from this rank to
// rank `to`: globally, on the sender side, and on the receiver side (the
// per-rank ledgers the Stats conservation invariants are checked against).
// It is the single funnel every metered operation passes through, so it
// is also where AfterCalls crashes fire - before the payload moves.
func (c *Comm) accountTransfer(to int, class OpClass, bytes int64) {
	c.maybeCrashOnCall()
	c.w.bytes[class].Add(bytes)
	c.w.calls[class].Add(1)
	c.w.sent[c.rank][class].Add(bytes)
	c.w.recv[to][class].Add(bytes)
}

// deliver copies data into the destination mailbox with accounting.
func deliver[T Elem](c *Comm, to, tag int, data []T, class OpClass) {
	bytes := int64(len(data)) * elemSize[T]()
	ref := c.tr.Begin(class.String(), "xfer")
	out := make([]T, len(data))
	copy(out, data)
	c.accountTransfer(to, class, bytes)
	c.w.boxes[c.rank][to].put(tag, out)
	c.tr.EndBytes(ref, bytes)
}

// recvClass receives a []T from rank `from` with the given tag, blocking
// until a matching message arrives; a peer that exited without sending it
// trips a PeerLostError panic instead of hanging forever. The wait
// span is attributed to the collective class driving it, so a trace splits
// "blocked waiting for a broadcast" from "blocked waiting for an
// all-to-all". It brackets the blocking take: the time to this rank is
// stall, the payload's ship time is on the sender's transfer span.
func recvClass[T Elem](c *Comm, from, tag int, class OpClass) []T {
	ref := c.tr.Begin(class.String()+" wait", "wait")
	data, ok := c.w.boxes[from][c.rank].take(tag)
	c.tr.End(ref)
	if !ok {
		c.lostPeer(from, fmt.Sprintf("%v receive tag %d", class, tag))
	}
	return data.([]T)
}

// tagBarrier is Barrier's reserved tag; the tags callers pass are
// non-negative.
const tagBarrier = -1

// Barrier blocks until every rank has entered it: a dissemination barrier
// over the mailboxes, in which round k signals rank+2^k and waits for
// rank-2^k. Unmetered. A peer that exits without signalling trips a
// PeerLostError panic naming it, as in every collective.
func (c *Comm) Barrier() {
	ref := c.tr.Begin("MPI_Barrier wait", "wait")
	defer c.tr.End(ref)
	size := c.w.size
	for step := 1; step < size; step <<= 1 {
		c.w.boxes[c.rank][(c.rank+step)%size].put(tagBarrier, nil)
		from := (c.rank - step + size) % size
		if _, ok := c.w.boxes[from][c.rank].take(tagBarrier); !ok {
			c.lostPeer(from, "Barrier")
		}
	}
}

// Bcast broadcasts root's data to all ranks over a binomial tree (the
// paper's strategy for the Fock exchange wavefunction distribution, which
// "takes advantage of the fat-tree interconnect topology"). Non-root ranks
// pass a buffer of the same length that is overwritten.
func Bcast[T Elem](c *Comm, root, tag int, data []T) {
	bcastTree(c, root, tag, data, ClassBcast)
}

// bcastTree is the textbook binomial broadcast on relative ranks.
func bcastTree[T Elem](c *Comm, root, tag int, data []T, class OpClass) {
	size := c.w.size
	if size == 1 {
		return
	}
	rel := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (c.rank - mask + size) % size
			in := recvClass[T](c, src, tag, class)
			copy(data, in)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			dst := (c.rank + mask) % size
			deliver(c, dst, tag, data, class)
		}
	}
}

// AllreduceSum sums data element-wise across ranks, reducing in rank order
// for determinism, leaving the result on every rank (used for the overlap
// matrix and the charge density; sections 3.3/3.4). Consumes tags tag and
// tag+1.
func AllreduceSum[T Elem](c *Comm, tag int, data []T) {
	size := c.w.size
	if size == 1 {
		return
	}
	if c.rank == 0 {
		for r := 1; r < size; r++ {
			in := recvClass[T](c, r, tag, ClassAllreduce)
			for i := range data {
				data[i] += in[i]
			}
		}
	} else {
		deliver(c, 0, tag, data, ClassAllreduce)
	}
	bcastTree(c, 0, tag+1, data, ClassAllreduce)
}

// Alltoallv performs a personalized all-to-all: send[d] goes to rank d;
// the returned slice holds what each rank sent to us (recv[s] from rank s).
// This is the layout transpose between band-index and G-space
// parallelization (Fig. 1).
func Alltoallv[T Elem](c *Comm, tag int, send [][]T) [][]T {
	size := c.w.size
	if len(send) != size {
		panic("mpi: Alltoallv needs one slice per rank")
	}
	recv := make([][]T, size)
	recv[c.rank] = send[c.rank]
	for off := 1; off < size; off++ {
		dst := (c.rank + off) % size
		deliver(c, dst, tag, send[dst], ClassAlltoallv)
	}
	for off := 1; off < size; off++ {
		src := (c.rank - off + size) % size
		recv[src] = recvClass[T](c, src, tag, ClassAlltoallv)
	}
	return recv
}

// Allgatherv gathers each rank's (possibly differently sized) data onto
// every rank, returned indexed by source rank. Used for the
// exchange-correlation potential assembly (section 3.4).
func Allgatherv[T Elem](c *Comm, tag int, data []T) [][]T {
	size := c.w.size
	out := make([][]T, size)
	own := make([]T, len(data))
	copy(own, data)
	out[c.rank] = own
	for off := 1; off < size; off++ {
		dst := (c.rank + off) % size
		deliver(c, dst, tag, data, ClassAllgatherv)
	}
	for off := 1; off < size; off++ {
		src := (c.rank - off + size) % size
		out[src] = recvClass[T](c, src, tag, ClassAllgatherv)
	}
	return out
}

// newWorld allocates the shared state for a communicator of the given size.
func newWorld(size int) *world {
	w := &world{
		size:    size,
		sent:    make([][numClasses]atomic.Int64, size),
		recv:    make([][numClasses]atomic.Int64, size),
		opCalls: make([]atomic.Int64, size),
		failed:  make([]atomic.Pointer[RankFailure], size),
	}
	w.boxes = make([][]*pairBox, size)
	for s := 0; s < size; s++ {
		w.boxes[s] = make([]*pairBox, size)
		for d := 0; d < size; d++ {
			w.boxes[s][d] = newPairBox()
		}
	}
	return w
}
