package scf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ptdft/internal/hamiltonian"
	"ptdft/internal/lattice"
)

// TestCacheSingleflight: concurrent requests for one key run the solve
// exactly once; every caller but the builder reports a hit. (Run under
// -race in CI.)
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var solves atomic.Int64
	res := &Result{Energy: hamiltonian.EnergyBreakdown{Kinetic: 42}}
	const callers = 16
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, hit, err := c.GroundState("k", func() (*Result, error) {
				solves.Add(1)
				return res, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if got != res {
				t.Errorf("caller %d got a different result object", i)
			}
			hits[i] = hit
		}(i)
	}
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Fatalf("solve ran %d times, want 1", n)
	}
	nhit := 0
	for _, h := range hits {
		if h {
			nhit++
		}
	}
	if nhit != callers-1 {
		t.Errorf("%d of %d callers reported a hit, want %d (all but the builder)", nhit, callers, callers-1)
	}
	if len(c.entries) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(c.entries))
	}
}

// TestCacheErrorNotCached: a failed solve is retried by the next caller
// instead of being served from the cache.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache()
	calls := 0
	_, _, err := c.GroundState("k", func() (*Result, error) {
		calls++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
	res := &Result{}
	got, hit, err := c.GroundState("k", func() (*Result, error) {
		calls++
		return res, nil
	})
	if err != nil || got != res || hit {
		t.Fatalf("retry after failure: res=%v hit=%v err=%v", got == res, hit, err)
	}
	if calls != 2 {
		t.Fatalf("solve ran %d times, want 2", calls)
	}
}

// TestCacheEviction: the cache is bounded - past the cap the
// least-recently-used completed entry is dropped, so a long-lived daemon
// cannot pin an unbounded number of orbital sets. Recently-used entries
// survive; the evicted key re-solves on the next request.
func TestCacheEviction(t *testing.T) {
	c := NewCacheCap(2)
	solves := map[string]int{}
	get := func(key string) bool {
		_, hit, err := c.GroundState(key, func() (*Result, error) {
			solves[key]++
			return &Result{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now the LRU entry
	get("c") // over cap: evicts b
	if len(c.entries) != 2 {
		t.Fatalf("cache holds %d entries, want 2 (the cap)", len(c.entries))
	}
	if !get("a") {
		t.Error("recently-used entry was evicted")
	}
	if get("b") {
		t.Error("LRU entry was not evicted")
	}
	if solves["a"] != 1 || solves["b"] != 2 || solves["c"] != 1 {
		t.Errorf("solve counts %v, want a:1 b:2 c:1", solves)
	}
	// Unbounded cache (cap <= 0) never evicts.
	u := NewCacheCap(0)
	for _, k := range []string{"a", "b", "c", "d"} {
		u.GroundState(k, func() (*Result, error) { return &Result{}, nil })
	}
	if len(u.entries) != 4 {
		t.Errorf("unbounded cache holds %d entries, want 4", len(u.entries))
	}
}

// TestFingerprintSensitivity: the fingerprint must change when any field
// that can change the converged orbitals changes, and must not change
// otherwise.
func TestFingerprintSensitivity(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	base := Fingerprint(cell, 4, "lda", 16, 1234)
	if base != Fingerprint(lattice.MustSiliconSupercell(1, 1, 1), 4, "lda", 16, 1234) {
		t.Fatal("equal problems produced different fingerprints")
	}
	if base == Fingerprint(cell, 4.5, "lda", 16, 1234) {
		t.Error("ecut change did not change the fingerprint")
	}
	if base == Fingerprint(cell, 4, "hse06", 16, 1234) {
		t.Error("functional change did not change the fingerprint")
	}
	if base == Fingerprint(cell, 4, "lda", 17, 1234) {
		t.Error("band-count change did not change the fingerprint")
	}
	if base == Fingerprint(cell, 4, "lda", 16, 1235) {
		t.Error("seed change did not change the fingerprint")
	}
	if base == Fingerprint(lattice.MustSiliconSupercell(1, 1, 2), 4, "lda", 16, 1234) {
		t.Error("cell change did not change the fingerprint")
	}
	moved := lattice.MustSiliconSupercell(1, 1, 1)
	if err := moved.DisplaceAtom(0, [3]float64{0.1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if base == Fingerprint(moved, 4, "lda", 16, 1234) {
		t.Error("atom displacement did not change the fingerprint")
	}
}
