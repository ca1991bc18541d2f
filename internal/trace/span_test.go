package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSpanBasics records a small nested timeline and checks the
// aggregates: per-phase sums, union-of-interval rank seconds, coverage.
func TestSpanBasics(t *testing.T) {
	r := NewRecorder()
	tr := r.Track(0, "rank 0")
	// step [0,100ms] containing density [10,30] and scf [40,90],
	// in deterministic recorded form.
	tr.Record(Span{Name: "step", Cat: "step", Start: 0, Dur: 100e6})
	tr.Record(Span{Name: "density", Cat: "solver", Start: 10e6, Dur: 20e6})
	tr.Record(Span{Name: "scf_iter", Cat: "solver", Start: 40e6, Dur: 50e6, N: 1})
	tr.Record(Span{Name: "MPI_Allreduce", Cat: "xfer", Start: 95e6, Dur: 5e6, Bytes: 64})

	ph := r.PhaseSeconds()
	if math.Abs(ph["step"]-0.1) > 1e-12 || math.Abs(ph["density"]-0.02) > 1e-12 {
		t.Fatalf("phase seconds wrong: %v", ph)
	}
	// All spans nest inside step: the union is exactly the step span.
	if rs := r.RankSeconds(); math.Abs(rs-0.1) > 1e-12 {
		t.Fatalf("rank seconds = %v, want 0.1", rs)
	}
	if cov := r.Coverage()[0]; math.Abs(cov-1) > 1e-12 {
		t.Fatalf("coverage = %v, want 1", cov)
	}

	p := r.Profile()
	if g := p[0]; g.Name != "step" || g.Calls != 1 || math.Abs(g.Seconds-0.1) > 1e-12 {
		t.Fatalf("profile fold wrong: %+v", g)
	}
	if g := p[len(p)-1]; g.Name != "MPI_Allreduce" || g.Bytes != 64 {
		t.Fatalf("profile bytes not folded: %+v", g)
	}
}

// TestSpanUnionGaps checks that disjoint spans sum and overlapping spans
// merge in the interval union.
func TestSpanUnionGaps(t *testing.T) {
	r := NewRecorder()
	tr := r.Track(3, "rank 3")
	tr.Record(Span{Name: "a", Start: 0, Dur: 10})
	tr.Record(Span{Name: "b", Start: 5, Dur: 10}) // overlaps a -> [0,15]
	tr.Record(Span{Name: "c", Start: 100, Dur: 20})
	got := unionNs([]Span{{Start: 0, Dur: 10}, {Start: 5, Dur: 10}, {Start: 100, Dur: 20}})
	if got != 35 {
		t.Fatalf("unionNs = %d, want 35", got)
	}
	// Extent [0,120], busy 35.
	if cov := r.Coverage()[3]; math.Abs(cov-35.0/120.0) > 1e-12 {
		t.Fatalf("coverage = %v", cov)
	}
}

// TestSpanConcurrent exercises concurrent Begin/End on one track
// and on the recorder from many goroutines; run under -race this pins
// the locking discipline the shared-Comm fetch pipelines rely on.
func TestSpanConcurrent(t *testing.T) {
	r := NewRecorder()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := r.Track(0, "shared")
			own := r.Track(1+w, "own")
			for i := 0; i < perWorker; i++ {
				ref := shared.Begin("op", "comm")
				own.EndN(own.Begin("tick", "sched"), int64(w))
				shared.EndBytes(ref, int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Track(0, "shared").Len(); got != workers*perWorker {
		t.Fatalf("shared track has %d spans, want %d", got, workers*perWorker)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
}

// TestDisabledPathZeroAlloc pins the disabled path: a nil track (and nil
// recorder) must record nothing, never read the clock, and allocate
// nothing - the contract that lets the instrumentation stay unconditionally
// in solver and comm hot paths.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Recorder
	tr := r.Track(0, "disabled")
	if tr != nil {
		t.Fatal("nil recorder must hand out nil tracks")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ref := tr.Begin("step", "step")
		tr.EndBytes(ref, 99)
		tr.End(ref)
		tr.EndN(ref, 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
	if r.RankSeconds() != 0 || r.PhaseSeconds() != nil || r.Coverage() != nil {
		t.Fatal("nil recorder aggregates must be empty")
	}
}

// TestChromeTraceGolden pins the exporter's exact output for a
// deterministic recording: event shape, microsecond conversion, metadata
// thread names, args attribution.
func TestChromeTraceGolden(t *testing.T) {
	r := NewRecorder()
	t0 := r.Track(0, "rank 0")
	t0.Record(Span{Name: "step", Cat: "step", Start: 0, Dur: 2_000_000})
	t0.Record(Span{Name: "MPI_Bcast", Cat: "xfer", Start: 500_000, Dur: 250_000, Bytes: 4096})
	t1 := r.Track(1, "rank 1")
	t1.Record(Span{Name: "scf_iter", Cat: "solver", Start: 1_000, Dur: 1_500_000, N: 2})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	const want = `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},` +
		`{"name":"step","cat":"step","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0},` +
		`{"name":"MPI_Bcast","cat":"xfer","ph":"X","ts":500,"dur":250,"pid":0,"tid":0,"args":{"bytes":4096}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"rank 1"}},` +
		`{"name":"scf_iter","cat":"solver","ph":"X","ts":1,"dur":1500,"pid":0,"tid":1,"args":{"n":2}}` +
		`],"displayTimeUnit":"ms"}`
	got := strings.TrimSpace(buf.String())
	if got != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestWriteChromeTraceFile: the file holds exactly WriteChromeTrace's
// bytes, replaces a longer file it finds at the path, and a path it cannot
// create is an error naming it.
func TestWriteChromeTraceFile(t *testing.T) {
	r := NewRecorder()
	r.Track(0, "rank 0").Record(Span{Name: "step", Cat: "step", Start: 0, Dur: 2_000_000})
	var want bytes.Buffer
	if err := r.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 4*want.Len()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds\n%s\nwant\n%s", got, want.Bytes())
	}
	bad := filepath.Join(t.TempDir(), "missing", "trace.json")
	if err := r.WriteChromeTraceFile(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("WriteChromeTraceFile(%s) = %v, want an error naming the path", bad, err)
	}
}
