// Package trace is the flight recorder of the real (laptop-scale) runs -
// the NVPROF stand-in: per-rank span timelines (span.go), their exporters
// (export.go), and the flat per-phase fold below that prints wall-clock
// breakdowns in the style of Table 1 from actual executions.
package trace

import (
	"fmt"
	"io"
	"sort"
)

// Region is one row of the flat profile: everything recorded under one
// span name, across all tracks.
type Region struct {
	Name    string
	Seconds float64
	Calls   int64
	Bytes   int64
}

// Profile folds the recorded spans into one Region per span name, sorted
// by descending time. Nested spans each contribute their own duration,
// like PhaseSeconds.
func (r *Recorder) Profile() []Region {
	index := map[string]int{}
	var out []Region
	for _, ts := range r.snapshot() {
		for _, s := range ts.spans {
			i, seen := index[s.Name]
			if !seen {
				i = len(out)
				index[s.Name] = i
				out = append(out, Region{Name: s.Name})
			}
			out[i].Seconds += float64(s.Dur) / 1e9
			out[i].Calls++
			out[i].Bytes += s.Bytes
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// Report writes regions as a Table-1-style breakdown, in the order given.
func Report(w io.Writer, regions []Region) {
	var total float64
	for _, r := range regions {
		total += r.Seconds
	}
	fmt.Fprintf(w, "%-32s %10s %8s %9s\n", "region", "time (s)", "calls", "share")
	for _, r := range regions {
		share := 0.0
		if total > 0 {
			share = r.Seconds / total * 100
		}
		fmt.Fprintf(w, "%-32s %10.4f %8d %8.1f%%\n", r.Name, r.Seconds, r.Calls, share)
	}
	fmt.Fprintf(w, "%-32s %10.4f\n", "total", total)
}
