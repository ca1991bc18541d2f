package mpi

import (
	"testing"
	"time"
)

// TestStatsConservationInvariants checks the per-rank ledgers against the
// conservation laws of the metering: every byte shipped under a class is a
// byte received under that class, the per-rank breakdown sums to the
// global totals, and the collectives hit their analytic volumes.
func TestStatsConservationInvariants(t *testing.T) {
	const n = 25 // payload elements per collective
	for _, size := range []int{2, 3, 5, 8} {
		st := Run(size, func(c *Comm) {
			data := make([]complex128, n)
			Bcast(c, 0, 5, data)
			f := make([]float64, n)
			AllreduceSum(c, 10, f)
			send := make([][]complex128, size)
			for d := 0; d < size; d++ {
				send[d] = make([]complex128, n)
			}
			Alltoallv(c, 20, send)
			Allgatherv(c, 30, data)
		})
		m := st.Matrix()
		if m.Ranks != size {
			t.Fatalf("size=%d: per-rank breakdown covers %d ranks", size, m.Ranks)
		}
		// Per-class conservation: sent totals == received totals == the
		// global class counter.
		for cl := OpClass(0); cl < numClasses; cl++ {
			var sent, recv int64
			for r := 0; r < size; r++ {
				sent += m.SentBytes[r][cl]
				recv += m.RecvBytes[r][cl]
			}
			if sent != st.BytesFor(cl) || recv != st.BytesFor(cl) {
				t.Errorf("size=%d %v: sent=%d recv=%d, class total %d", size, cl, sent, recv, st.BytesFor(cl))
			}
		}
		// Analytic volumes: a broadcast ships (P-1) payloads; the
		// rank-ordered allreduce gathers (P-1) payloads and broadcasts
		// (P-1) back; the uniform all-to-all ships P(P-1) blocks, as does
		// the allgather.
		if want := int64(size-1) * n * 16; st.BytesFor(ClassBcast) != want {
			t.Errorf("size=%d: Bcast bytes %d, want %d", size, st.BytesFor(ClassBcast), want)
		}
		if want := int64(2*(size-1)) * n * 8; st.BytesFor(ClassAllreduce) != want {
			t.Errorf("size=%d: Allreduce bytes %d, want %d", size, st.BytesFor(ClassAllreduce), want)
		}
		if want := int64(size*(size-1)) * n * 16; st.BytesFor(ClassAlltoallv) != want {
			t.Errorf("size=%d: Alltoallv bytes %d, want %d", size, st.BytesFor(ClassAlltoallv), want)
		}
		if want := int64(size*(size-1)) * n * 16; st.BytesFor(ClassAllgatherv) != want {
			t.Errorf("size=%d: Allgatherv bytes %d, want %d", size, st.BytesFor(ClassAllgatherv), want)
		}
		// Uniform payloads: each rank's Alltoallv send total equals its
		// receive total.
		for r := 0; r < size; r++ {
			if sent, recv := m.SentBytes[r][ClassAlltoallv], m.RecvBytes[r][ClassAlltoallv]; sent != recv {
				t.Errorf("size=%d rank %d: Alltoallv sent %d != recv %d", size, r, sent, recv)
			}
		}
	}
}

// TestPerturbModel: a perturbation that injects no fault - a peer-loss
// deadline alone - changes neither what is delivered nor what is billed.
func TestPerturbModel(t *testing.T) {
	p := &Perturb{Deadline: time.Second}
	st, fail := RunTolerant(2, p, func(c *Comm) {
		data := []complex128{complex(float64(c.Rank()), 0)}
		Bcast(c, 0, 1, data)
		if data[0] != 0 {
			t.Errorf("rank %d: perturbed broadcast delivered %v", c.Rank(), data[0])
		}
	})
	if fail != nil {
		t.Fatalf("a deadline alone failed the run: %v", fail)
	}
	if want := int64(16); st.BytesFor(ClassBcast) != want {
		t.Errorf("perturbed Bcast bytes %d, want %d", st.BytesFor(ClassBcast), want)
	}
}
