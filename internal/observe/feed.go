// Incremental observable feed: the streaming counterpart of the post-hoc
// observable functions in this package. A propagation appends one Sample
// per completed step; any number of subscribers (the job server's SSE
// streams, a test, a progress display) replay the history and then block
// for new samples, so a client attaching mid-run sees the full trajectory
// so far and every later step exactly once.
package observe

import "sync"

// Sample is one step's observables, the unit of the streaming feed and of
// the job server's result records.
type Sample struct {
	Step     int     `json:"step"` // cumulative step index (ion steps under MD)
	TimeFs   float64 `json:"time_fs"`
	Energy   float64 `json:"energy_ha"`
	CurrentZ float64 `json:"current_z"`
	Excited  float64 `json:"excited_electrons"`
	SCFIters int     `json:"scf_iterations"`
	WallSec  float64 `json:"wall_seconds"`
}

// Feed is an append-only sample log with blocking subscription. Appends
// and reads are safe from any goroutine; Close marks the trajectory
// complete and releases every waiting subscriber.
type Feed struct {
	mu      sync.Mutex
	samples []Sample
	closed  bool
	wake    chan struct{} // closed and replaced on every append/close
}

// NewFeed returns an empty, open feed.
func NewFeed() *Feed {
	return &Feed{wake: make(chan struct{})}
}

// Append adds one sample to the feed and wakes every blocked subscriber.
// Appending to a closed feed panics: a trajectory cannot grow after it
// was declared complete.
func (f *Feed) Append(s Sample) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		panic("observe: Append on a closed feed")
	}
	f.samples = append(f.samples, s)
	close(f.wake)
	f.wake = make(chan struct{})
}

// Close marks the feed complete. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	close(f.wake)
	f.wake = make(chan struct{})
}

// Snapshot returns a copy of all samples appended so far.
func (f *Feed) Snapshot() []Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Sample(nil), f.samples...)
}

// Wait blocks until sample i exists and returns it (ok=true), or until
// the feed is closed with fewer than i+1 samples or cancel fires
// (ok=false). Subscribers iterate i = 0, 1, 2, ... for an exactly-once
// replay-then-follow stream:
//
//	for i := 0; ; i++ {
//		s, ok := feed.Wait(i, ctx.Done())
//		if !ok { break }
//		emit(s)
//	}
func (f *Feed) Wait(i int, cancel <-chan struct{}) (Sample, bool) {
	for {
		f.mu.Lock()
		if i < len(f.samples) {
			s := f.samples[i]
			f.mu.Unlock()
			return s, true
		}
		if f.closed {
			f.mu.Unlock()
			return Sample{}, false
		}
		wake := f.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-cancel:
			return Sample{}, false
		}
	}
}
