package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Machine-speed calibration. On the shared VM this benchmark was built on,
// neighbours slow compute-bound code by up to 2x for minutes at a time
// while a dependent scalar chain or a memory-bound triad barely moves (the
// signature of a busy SMT sibling), so raw wall times of one commit read
// quartile spreads of 0.15-0.44 over 15 runs. A calibrator therefore runs a
// short fixed kernel of the benchmark's own every calibPeriod beside the
// workload, and every end-to-end time is divided by how much slower than
// calibRefMS the kernel ran around it. Over the same 15 runs the adjusted
// medians read spreads of 0.03-0.10 (README.md, "Machine speed").

const (
	calibPeriod = 200 * time.Millisecond
	calibChunks = 10
	// calibWindow is how far before an interval's start and after its end
	// the kernel timings still count towards that interval's speed.
	calibWindow = time.Second
	// calibRefMS is the kernel's time on the undisturbed machine the first
	// baseline was recorded on (Xeon @ 2.10GHz VM, go1.24, read beside any
	// of the four workloads). It fixes the scale of the adjusted times and
	// nothing else: on other hardware every adjusted time is off by one
	// constant factor, which a comparison of two commits does not see.
	calibRefMS = 3.2
)

var (
	calibL1   = calibData(1 << 10) // 16 KB
	calibL2   = calibData(1 << 14) // 256 KB
	calibSink complex128
)

func calibData(n int) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%7), 1)
	}
	return a
}

// calibKernel is compute-bound the way the solver's kernels are: complex
// multiply-accumulates over an L1-resident array on four independent
// chains (the inner product of linalg.Overlap), then in-place butterfly
// passes over an L2-resident array (the access pattern of an FFT). The
// butterflies are unitary, so the data keeps its magnitude for ever.
func calibKernel() {
	var a0, a1, a2, a3 complex128
	w := complex(0.999, 0.01)
	for r := 0; r < 160; r++ {
		for i := 0; i < len(calibL1); i += 4 {
			a0 += calibL1[i] * w
			a1 += calibL1[i+1] * w
			a2 += calibL1[i+2] * w
			a3 += calibL1[i+3] * w
		}
	}
	calibSink = a0 + a1 + a2 + a3
	const invSqrt2 = math.Sqrt2 / 2
	a := calibL2
	for h := 1; h < len(a); h *= 4 {
		for i := 0; i+h < len(a); i += 2 * h {
			for j := i; j < i+h; j++ {
				x, y := a[j], a[j+h]
				a[j], a[j+h] = (x+y)*invSqrt2, (x-y)*invSqrt2
			}
		}
	}
}

// calibSample is one reading of the machine's speed: calibChunks kernel
// runs timed one by one, the median taken for all of them. With other
// goroutines runnable on the one thread the Go scheduler may park this one
// in the middle of a run for 10-20 ms (it inherits a used-up time slice
// when a timer readies it); that spoils one or two of the runs, which the
// median drops, where one 3 ms run read 4-7x too long in every second
// sample beside the 2-rank workloads.
func calibSample() float64 {
	var ts [calibChunks]float64
	for i := range ts {
		t := time.Now()
		calibKernel()
		ts[i] = time.Since(t).Seconds() * 1e3
	}
	return calibChunks * median(ts[:])
}

// calibrator takes a calibSample every calibPeriod until stopped.
type calibrator struct {
	stop, done chan struct{}
	mu         sync.Mutex
	at         []time.Time // start of each sample, ascending
	ms         []float64
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			t := time.Now()
			ms := calibSample()
			c.mu.Lock()
			c.at, c.ms = append(c.at, t), append(c.ms, ms)
			c.mu.Unlock()
		}
	}()
	return c
}

// close stops the calibrator and waits for its goroutine.
func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// kernelMS is the median sample over [from-calibWindow, to+calibWindow], or
// over everything recorded when that window holds no sample.
func (c *calibrator) kernelMS(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from.Add(-calibWindow)) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(to.Add(calibWindow)) })
	if lo < hi {
		return median(c.ms[lo:hi])
	}
	return median(c.ms)
}

// slowdown is how many times slower than the reference machine this one
// ran between from and to; 1 before the first kernel run was recorded.
func (c *calibrator) slowdown(from, to time.Time) float64 {
	if ms := c.kernelMS(from, to); ms > 0 {
		return ms / calibRefMS
	}
	return 1
}
