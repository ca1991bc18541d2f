// Exporters for the span flight recorder: Chrome trace-event JSON
// (loadable in chrome://tracing and Perfetto, one pid per recorder and
// one tid per track, "X" complete events in microseconds) and a
// structured snapshot that keeps the raw nanosecond spans for tests to
// inspect. The Table-1 text exporter is Recorder.Profile + Report
// (trace.go).
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// chromeEvent is one entry of the Chrome trace-event "traceEvents"
// array. Complete spans use ph "X" with ts/dur in microseconds; track
// labels ride thread_name metadata events (ph "M").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container format ({"traceEvents": ...}),
// which both chrome://tracing and Perfetto accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorder's tracks as Chrome trace-event
// JSON. Tracks map to threads (tid = track id) of one process; events
// appear in recorded order per track, which the viewers re-sort anyway.
// A nil recorder writes an empty, still-valid trace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	snaps := r.snapshot()
	events := make([]chromeEvent, 0, 16)
	for _, ts := range snaps {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: ts.id,
			Args: map[string]any{"name": ts.label},
		})
		for _, s := range ts.spans {
			ev := chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts:  float64(s.Start) / 1e3,
				Dur: float64(s.Dur) / 1e3,
				Tid: ts.id,
			}
			if s.Bytes != 0 || s.N != 0 {
				ev.Args = make(map[string]any, 2)
				if s.Bytes != 0 {
					ev.Args["bytes"] = s.Bytes
				}
				if s.N != 0 {
					ev.Args["n"] = s.N
				}
			}
			events = append(events, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes WriteChromeTrace's JSON to path, creating
// or truncating the file. It is the one way the commands write a trace.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(r.WriteChromeTrace(f), f.Close()); err != nil {
		return fmt.Errorf("writing trace file %s: %w", path, err)
	}
	return nil
}

// TrackJSON is one track of the structured snapshot.
type TrackJSON struct {
	ID    int        `json:"id"`
	Label string     `json:"label"`
	Spans []SpanJSON `json:"spans"`
}

// SpanJSON is one span of the structured snapshot, in raw nanoseconds.
type SpanJSON struct {
	Name    string `json:"name"`
	Cat     string `json:"cat,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	N       int64  `json:"n,omitempty"`
}

// Tracks returns the recorder's content as the structured snapshot
// (ordered by track id, open spans closed at the snapshot instant).
func (r *Recorder) Tracks() []TrackJSON {
	snaps := r.snapshot()
	out := make([]TrackJSON, len(snaps))
	for i, ts := range snaps {
		spans := make([]SpanJSON, len(ts.spans))
		for j, s := range ts.spans {
			spans[j] = SpanJSON{
				Name: s.Name, Cat: s.Cat,
				StartNs: s.Start, DurNs: s.Dur,
				Bytes: s.Bytes, N: s.N,
			}
		}
		out[i] = TrackJSON{ID: ts.id, Label: ts.label, Spans: spans}
	}
	return out
}
