// Span flight recorder: per-rank (or per-worker) append-only timelines
// of hierarchical start/stop spans, which Recorder.Profile folds into the
// flat Table-1 report. Each Track is one timeline (one goroutine-MPI rank,
// one worker); spans carry a name, a category, nanosecond start/duration
// relative to the recorder's epoch, and optional byte/count attribution.
// The disabled path is a nil *Track / nil *Recorder: every method no-ops
// on a nil receiver without reading the clock or allocating, so
// instrumented hot paths cost one pointer check when tracing is off.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval on a track.
type Span struct {
	Name  string
	Cat   string
	Start int64 // ns since the recorder epoch
	Dur   int64 // ns; -1 while still open
	Bytes int64 // payload bytes attributed to the span (0 = none)
	N     int64 // generic count attribution: iteration, chunk index (0 = none)
}

// SpanRef identifies an open span returned by Begin, to be closed by
// End/EndBytes/EndN. The zero-track Begin returns a sentinel that every
// End variant ignores, so call sites need no enabled/disabled branches.
type SpanRef int32

const noSpan SpanRef = -1

// Track is one append-only timeline. A track is owned by one logical
// actor (a rank), but its methods are mutex-guarded, so any goroutine
// that holds it may record concurrently: an mpi.Comm, which several
// goroutines of a rank may share, records on its rank's one track.
// All methods are safe on a nil receiver; that is the disabled path.
type Track struct {
	rec   *Recorder
	id    int
	label string

	mu    sync.Mutex
	spans []Span
}

// Begin opens a span. The returned ref stays valid under concurrent
// Begin/End on the same track (spans are append-only; refs are indices).
func (t *Track) Begin(name, cat string) SpanRef {
	if t == nil {
		return noSpan
	}
	now := t.rec.now()
	t.mu.Lock()
	ref := SpanRef(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Cat: cat, Start: now, Dur: -1})
	t.mu.Unlock()
	return ref
}

// End closes a span opened by Begin.
func (t *Track) End(ref SpanRef) {
	if t == nil || ref < 0 {
		return
	}
	now := t.rec.now()
	t.mu.Lock()
	t.spans[ref].Dur = now - t.spans[ref].Start
	t.mu.Unlock()
}

// EndBytes closes a span and attributes moved payload bytes to it.
func (t *Track) EndBytes(ref SpanRef, bytes int64) {
	if t == nil || ref < 0 {
		return
	}
	now := t.rec.now()
	t.mu.Lock()
	t.spans[ref].Dur = now - t.spans[ref].Start
	t.spans[ref].Bytes = bytes
	t.mu.Unlock()
}

// EndN closes a span and attributes a count (iteration number, chunk
// index) to it.
func (t *Track) EndN(ref SpanRef, n int64) {
	if t == nil || ref < 0 {
		return
	}
	now := t.rec.now()
	t.mu.Lock()
	t.spans[ref].Dur = now - t.spans[ref].Start
	t.spans[ref].N = n
	t.mu.Unlock()
}

// Record appends a fully formed span verbatim. It exists for callers
// that measured the interval themselves and for deterministic tests of
// the exporters; instrumentation uses Begin/End.
func (t *Track) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len reports the number of recorded spans.
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the track's spans, closing still-open ones at "now" so
// a mid-run export is well formed.
func (t *Track) snapshot(now int64) []Span {
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	for i := range out {
		if out[i].Dur < 0 {
			out[i].Dur = now - out[i].Start
		}
	}
	return out
}

// Recorder owns a set of tracks sharing one time epoch. The zero value
// is not usable; construct with NewRecorder. A nil *Recorder is the
// disabled recorder: Track returns a nil *Track and every aggregate
// reports empty.
type Recorder struct {
	t0     time.Time
	mu     sync.Mutex
	tracks map[int]*Track
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), tracks: make(map[int]*Track)}
}

func (r *Recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// Track returns the timeline with the given id, creating it (with the
// given label) on first use. Repeat calls with one id return the same
// track, so a relaunched world (fault recovery) keeps appending to its
// rank's timeline. Returns nil on a nil recorder.
func (r *Recorder) Track(id int, label string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tracks[id]
	if t == nil {
		t = &Track{rec: r, id: id, label: label}
		r.tracks[id] = t
	}
	return t
}

// trackSnap is a consistent copy of one track for exporters.
type trackSnap struct {
	id    int
	label string
	spans []Span
}

// snapshot copies every track, ordered by id, with open spans closed at
// a single "now".
func (r *Recorder) snapshot() []trackSnap {
	if r == nil {
		return nil
	}
	now := r.now()
	r.mu.Lock()
	tracks := make([]*Track, 0, len(r.tracks))
	for _, t := range r.tracks {
		tracks = append(tracks, t)
	}
	r.mu.Unlock()
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].id < tracks[j].id })
	out := make([]trackSnap, len(tracks))
	for i, t := range tracks {
		out[i] = trackSnap{id: t.id, label: t.label, spans: t.snapshot(now)}
	}
	return out
}

// PhaseSeconds is Profile as a map: each span name's summed duration,
// nested spans each contributing their own (a "step" span includes the
// "density" spans inside it), matching how the flat profile is read.
func (r *Recorder) PhaseSeconds() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, reg := range r.Profile() {
		out[reg.Name] = reg.Seconds
	}
	return out
}

// RankSeconds returns the total busy time summed over tracks, counting
// overlapping spans on one track once (union of intervals), so nested and
// concurrent spans do not double-bill.
func (r *Recorder) RankSeconds() float64 {
	if r == nil {
		return 0
	}
	var total int64
	for _, ts := range r.snapshot() {
		total += unionNs(ts.spans)
	}
	return float64(total) / 1e9
}

// Coverage reports, per track id, the union-of-spans busy time as a
// fraction of the track's first-to-last extent (1 for a track with a
// single span; 0 for an empty extent). A hot phase the instrumentation
// misses shows up here as a hole; ptdft -profilereport prints it per
// track.
func (r *Recorder) Coverage() map[int]float64 {
	if r == nil {
		return nil
	}
	out := make(map[int]float64)
	for _, ts := range r.snapshot() {
		if len(ts.spans) == 0 {
			continue
		}
		lo, hi := ts.spans[0].Start, ts.spans[0].Start+ts.spans[0].Dur
		for _, s := range ts.spans {
			if s.Start < lo {
				lo = s.Start
			}
			if end := s.Start + s.Dur; end > hi {
				hi = end
			}
		}
		if hi <= lo {
			out[ts.id] = 0
			continue
		}
		out[ts.id] = float64(unionNs(ts.spans)) / float64(hi-lo)
	}
	return out
}

// unionNs measures the union of the span intervals in nanoseconds.
func unionNs(spans []Span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		if s.Dur > 0 {
			iv = append(iv, [2]int64{s.Start, s.Start + s.Dur})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open {
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		if v[0] <= curHi {
			if v[1] > curHi {
				curHi = v[1]
			}
			continue
		}
		total += curHi - curLo
		curLo, curHi = v[0], v[1]
	}
	if open {
		total += curHi - curLo
	}
	return total
}
