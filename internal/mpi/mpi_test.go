package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestRecvTagMatching: the mailbox under every collective buffers
// out-of-order tags and matches each receive to its own.
func TestRecvTagMatching(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			deliver(c, 1, 1, []float64{1}, ClassBcast)
			deliver(c, 1, 2, []float64{2}, ClassBcast)
			deliver(c, 1, 3, []float64{3}, ClassBcast)
		} else {
			for _, tag := range []int{3, 1, 2} {
				if v := recvClass[float64](c, 0, tag, ClassBcast); v[0] != float64(tag) {
					t.Errorf("tag %d got %v", tag, v)
				}
			}
		}
	})
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for root := 0; root < size; root += max(1, size/3) {
			stats := Run(size, func(c *Comm) {
				data := make([]complex128, 10)
				if c.Rank() == root {
					for i := range data {
						data[i] = complex(float64(i), float64(root))
					}
				}
				Bcast(c, root, 5, data)
				for i := range data {
					if data[i] != complex(float64(i), float64(root)) {
						t.Errorf("size=%d root=%d rank=%d: wrong data at %d", size, root, c.Rank(), i)
						return
					}
				}
			})
			if size > 1 {
				// A broadcast ships exactly (size-1) messages of the payload.
				want := int64(size-1) * 10 * 16
				if stats.BytesFor(ClassBcast) != want {
					t.Errorf("size=%d root=%d: bcast bytes = %d, want %d", size, root, stats.BytesFor(ClassBcast), want)
				}
			}
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		Run(size, func(c *Comm) {
			data := []float64{float64(c.Rank() + 1), 2}
			AllreduceSum(c, 10, data)
			wantFirst := float64(size*(size+1)) / 2
			if math.Abs(data[0]-wantFirst) > 1e-12 || math.Abs(data[1]-float64(2*size)) > 1e-12 {
				t.Errorf("size=%d rank=%d: allreduce got %v", size, c.Rank(), data)
			}
		})
	}
}

func TestAllreduceDeterministic(t *testing.T) {
	// Same inputs must give bit-identical results on every rank and run.
	results := make([][]float64, 2)
	for trial := 0; trial < 2; trial++ {
		var out atomic.Value
		Run(4, func(c *Comm) {
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			data := make([]float64, 100)
			for i := range data {
				data[i] = rng.NormFloat64() * 1e-8
			}
			AllreduceSum(c, 1, data)
			if c.Rank() == 0 {
				out.Store(append([]float64(nil), data...))
			}
		})
		results[trial] = out.Load().([]float64)
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("allreduce not deterministic at %d", i)
		}
	}
}

func TestAlltoallvTranspose(t *testing.T) {
	size := 4
	Run(size, func(c *Comm) {
		send := make([][]complex128, size)
		for d := 0; d < size; d++ {
			send[d] = []complex128{complex(float64(c.Rank()), float64(d))}
		}
		recv := Alltoallv(c, 3, send)
		for s := 0; s < size; s++ {
			want := complex(float64(s), float64(c.Rank()))
			if recv[s][0] != want {
				t.Errorf("rank %d: from %d got %v want %v", c.Rank(), s, recv[s][0], want)
			}
		}
	})
}

func TestAlltoallvVariableSizes(t *testing.T) {
	size := 3
	Run(size, func(c *Comm) {
		send := make([][]float64, size)
		for d := 0; d < size; d++ {
			send[d] = make([]float64, c.Rank()+1) // rank r sends r+1 elements
			for i := range send[d] {
				send[d][i] = float64(c.Rank()*10 + d)
			}
		}
		recv := Alltoallv(c, 4, send)
		for s := 0; s < size; s++ {
			if len(recv[s]) != s+1 {
				t.Errorf("rank %d: from %d got %d elements, want %d", c.Rank(), s, len(recv[s]), s+1)
			}
		}
	})
}

func TestAllgatherv(t *testing.T) {
	size := 5
	Run(size, func(c *Comm) {
		data := []int64{int64(c.Rank() * 100)}
		all := Allgatherv(c, 6, data)
		for s := 0; s < size; s++ {
			if all[s][0] != int64(s*100) {
				t.Errorf("rank %d: gathered %v from %d", c.Rank(), all[s], s)
			}
		}
	})
}

// TestBarrier: no rank leaves a barrier before every rank has entered it,
// three consecutive barriers deep, on power-of-two sizes and on the sizes
// whose last dissemination round wraps past rank 0. The barrier ships no
// metered bytes.
func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			var entered [3]atomic.Int64
			st := Run(size, func(c *Comm) {
				for b := range entered {
					entered[b].Add(1)
					c.Barrier()
					if n := entered[b].Load(); n != int64(size) {
						t.Errorf("rank %d left barrier %d with %d of %d ranks entered", c.Rank(), b, n, size)
					}
				}
			})
			if st.TotalBytes() != 0 {
				t.Errorf("barriers metered %d bytes", st.TotalBytes())
			}
		})
	}
}

func TestConcurrentTaggedBcastsOverlap(t *testing.T) {
	// The documented guarantee: a Comm may be used from several goroutines
	// of its rank as long as they use distinct tags.
	size := 4
	nb := 8
	Run(size, func(c *Comm) {
		results := make([][]complex128, nb)
		done := make(chan int, nb)
		for band := 0; band < nb; band++ {
			root := band % size
			buf := make([]complex128, 16)
			if c.Rank() == root {
				for i := range buf {
					buf[i] = complex(float64(band), float64(i))
				}
			}
			results[band] = buf
			go func(band, root int, buf []complex128) {
				Bcast(c, root, 100+band, buf)
				done <- band
			}(band, root, buf)
		}
		for i := 0; i < nb; i++ {
			<-done
		}
		for band := 0; band < nb; band++ {
			for i, v := range results[band] {
				if v != complex(float64(band), float64(i)) {
					t.Errorf("rank %d band %d wrong at %d: %v", c.Rank(), band, i, v)
					return
				}
			}
		}
	})
}

func TestRunPropagatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate")
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
