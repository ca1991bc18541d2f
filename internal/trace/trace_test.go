package trace

import (
	"strings"
	"sync"
	"testing"
)

// TestAddAndRegion: spans of one name add up - seconds and calls - across
// tracks; a name never recorded has no row.
func TestAddAndRegion(t *testing.T) {
	r := NewRecorder()
	r.Track(0, "rank 0").Record(Span{Name: "fock", Start: 0, Dur: 1.5e9})
	r.Track(1, "rank 1").Record(Span{Name: "fock", Start: 0, Dur: 0.5e9})
	r.Track(1, "rank 1").Record(Span{Name: "density", Start: 2e9, Dur: 0.25e9})
	p := r.Profile()
	if len(p) != 2 {
		t.Fatalf("profile %+v, want two rows", p)
	}
	if p[0].Name != "fock" || p[0].Seconds != 2.0 || p[0].Calls != 2 {
		t.Errorf("fock region %+v", p[0])
	}
	if p[1].Name != "density" || p[1].Seconds != 0.25 || p[1].Calls != 1 {
		t.Errorf("density region %+v", p[1])
	}
	var none *Recorder
	if len(none.Profile()) != 0 {
		t.Error("a nil recorder folded to rows")
	}
}

// TestSnapshotSorted: the fold is sorted by descending time, ties in
// first-recorded order.
func TestSnapshotSorted(t *testing.T) {
	tr := NewRecorder().Track(0, "rank 0")
	for _, s := range []Span{{Name: "small", Dur: 1}, {Name: "tie a", Dur: 5}, {Name: "big", Dur: 10}, {Name: "tie b", Dur: 5}} {
		tr.Record(s)
	}
	var names []string
	for _, g := range tr.rec.Profile() {
		names = append(names, g.Name)
	}
	if got := strings.Join(names, ","); got != "big,tie a,tie b,small" {
		t.Errorf("profile order %s", got)
	}
}

func TestReportFormat(t *testing.T) {
	var sb strings.Builder
	Report(&sb, []Region{{Name: "phase", Seconds: 2, Calls: 3}})
	out := sb.String()
	if !strings.Contains(out, "phase") || !strings.Contains(out, "100.0%") || !strings.Contains(out, "total") {
		t.Errorf("report missing content:\n%s", out)
	}
}

// TestConcurrentUse: folding while ranks are still recording (a live
// profile of a running job) loses nothing once they are done.
func TestConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr := r.Track(id%4, "shared")
			for j := 0; j < 100; j++ {
				tr.EndBytes(tr.Begin("hot", "solver"), 1)
				if j%10 == 0 {
					r.Profile()
				}
			}
		}(i)
	}
	wg.Wait()
	p := r.Profile()
	if len(p) != 1 || p[0].Calls != 1600 || p[0].Bytes != 1600 {
		t.Errorf("concurrent accounting lost updates: %+v", p)
	}
}
