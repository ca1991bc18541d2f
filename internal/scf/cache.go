// Ground-state caching: a content-hash fingerprint of the SCF problem and
// a singleflight cache over it, so repeated submissions of the same system
// (the job server's dominant ensemble workload) skip the most expensive
// phase of a short trajectory entirely. Two specs with equal fingerprints
// converge to the bit-identical ground state: the solve is deterministic
// in (cell, grid, functional, band count, seed), so a cache hit changes
// nothing downstream.
package scf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"ptdft/internal/lattice"
)

// Fingerprint returns a content hash identifying a ground-state problem:
// the cell geometry (edge lengths, species table, atom positions), the
// wavefunction grid (via the energy cutoff - the sphere and FFT box are
// functions of cell and cutoff), the functional name, the band count, and
// the starting-guess seed. Everything that can change the converged
// orbitals must be in the hash; nothing else should be, or equal systems
// stop deduplicating.
func Fingerprint(cell *lattice.Cell, ecut float64, functional string, nb int, seed int64) string {
	h := sha256.New()
	w := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w(math.Float64bits(v)) }
	for _, l := range cell.L {
		wf(l)
	}
	w(uint64(len(cell.Species)))
	for _, sp := range cell.Species {
		h.Write([]byte(sp.Symbol))
		h.Write([]byte{0})
		wf(sp.Zval)
		wf(sp.MassAMU)
	}
	w(uint64(len(cell.Atoms)))
	for _, a := range cell.Atoms {
		w(uint64(a.Species))
		for _, p := range a.Pos {
			wf(p)
		}
	}
	wf(ecut)
	h.Write([]byte(functional))
	h.Write([]byte{0})
	w(uint64(nb))
	w(uint64(seed))
	return hex.EncodeToString(h.Sum(nil))
}

// DefaultCacheCap bounds the cache to this many retained ground states
// unless the caller picks its own bound. Each entry pins a complete
// orbital set, so a long-lived daemon must not let distinct submissions
// grow the cache without limit.
const DefaultCacheCap = 16

// Cache deduplicates ground-state solves by fingerprint with singleflight
// semantics: concurrent requests for the same key block on one solve
// instead of each running their own, and later requests reuse the stored
// result. Failed solves are not cached (a retry rebuilds). The cache is
// bounded: past the cap, the least-recently-used completed entry is
// evicted (in-flight solves are never dropped - their waiters hold them).
// The stored Result is shared between callers and must be treated as
// read-only - every propagation driver clones the orbitals before
// mutating them.
type Cache struct {
	mu      sync.Mutex
	cap     int
	tick    int64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	done    chan struct{} // closed when the solve finished
	res     *Result
	err     error
	lastUse int64 // LRU clock at the most recent lookup
}

// NewCache returns an empty ground-state cache holding at most
// DefaultCacheCap entries.
func NewCache() *Cache {
	return NewCacheCap(DefaultCacheCap)
}

// NewCacheCap returns an empty cache bounded to max retained entries;
// max <= 0 means unbounded.
func NewCacheCap(max int) *Cache {
	return &Cache{cap: max, entries: make(map[string]*cacheEntry)}
}

// GroundState returns the cached result for key, or runs solve to build
// it. hit reports whether this caller reused work (a stored result or
// another caller's in-flight solve) rather than computing the ground
// state itself.
func (c *Cache) GroundState(key string, solve func() (*Result, error)) (res *Result, hit bool, err error) {
	c.mu.Lock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.lastUse = c.tick
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, true, e.err
		}
		return e.res, true, nil
	}
	e := &cacheEntry{done: make(chan struct{}), lastUse: c.tick}
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()

	e.res, e.err = solve()
	if e.err != nil {
		// Do not cache failures: the next submission retries the solve.
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.done)
	return e.res, false, e.err
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its cap. Called with c.mu held. In-flight entries are skipped: a
// waiter blocked on one must still receive the result, and evicting the
// builder's map slot would let a concurrent lookup start a duplicate
// solve.
func (c *Cache) evictLocked() {
	for c.cap > 0 && len(c.entries) > c.cap {
		victim := ""
		var oldest int64
		for k, e := range c.entries {
			select {
			case <-e.done:
			default:
				continue // in-flight
			}
			if victim == "" || e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		if victim == "" {
			return // everything is in flight; allow the overshoot
		}
		delete(c.entries, victim)
	}
}
