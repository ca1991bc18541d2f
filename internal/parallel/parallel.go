// Package parallel provides a small shared-memory work-distribution helper
// used by the numerical kernels. It stands in for the node-level parallel
// substrate (the GPU streaming multiprocessors in the paper's setting): the
// batched FFTs, GEMMs and point-wise kernels all distribute their work
// through For and ForBlock.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the number of concurrent workers. It defaults to
// runtime.GOMAXPROCS(0) and can be lowered for deterministic profiling.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetMaxWorkers sets the worker bound for subsequent For/ForBlock calls.
// n < 1 resets to GOMAXPROCS. It returns the previous value.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers reports the current worker bound.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// For runs f(i) for every i in [0, n) using up to MaxWorkers goroutines:
// ForWorker without the worker index. Iterations are claimed dynamically in
// order, so mildly unbalanced loops still distribute well. f must be safe
// for concurrent invocation on distinct indices.
func For(n int, f func(i int)) {
	ForWorker(n, func(_, i int) { f(i) })
}

// NumWorkers reports how many workers For and ForWorker would launch for an
// n-iteration loop: min(MaxWorkers, n), and at least 1. Callers that bind
// one scratch workspace per worker size their workspace table with it.
func NumWorkers(n int) int {
	w := MaxWorkers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForWorker is For with a stable worker identity: f(worker, i) runs for
// every i in [0, n), and all invocations with the same worker index execute
// sequentially on the same goroutine, with worker in [0, NumWorkers(n)).
// This lets callers bind one preallocated workspace (FFT scratch, pair
// buffers) per worker instead of allocating per iteration - the hot-path
// memory discipline of the Fock exchange.
func ForWorker(n int, f func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := NumWorkers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(worker, i)
			}
		}(g)
	}
	wg.Wait()
}

// ForBlock runs f(lo, hi) over contiguous chunks that partition [0, n).
// It is preferred over For when per-iteration work is tiny (point-wise
// array kernels) so that each worker touches a contiguous range.
func ForBlock(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := MaxWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
