package mpi

import (
	"encoding/json"
	"fmt"
	"testing"

	"ptdft/internal/trace"
)

// TestCommSpans runs a 4-rank mix of collectives under an attached span
// recorder and checks that every rank's timeline carries both wait and
// transfer spans, and that the transfer bytes recorded on spans equal the
// metered Stats total (the "folded from the existing Stats ledgers"
// contract).
func TestCommSpans(t *testing.T) {
	rec := trace.NewRecorder()
	const ranks = 4
	st := Run(ranks, func(c *Comm) {
		c.SetTrace(rec.Track(c.Rank(), fmt.Sprintf("rank %d", c.Rank())))
		buf := make([]complex128, 32)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = complex(float64(i), 0)
			}
		}
		Bcast(c, 0, 1, buf)
		sum := []float64{float64(c.Rank())}
		AllreduceSum(c, 10, sum)
		send := make([][]float64, ranks)
		for d := range send {
			send[d] = []float64{float64(c.Rank()*10 + d)}
		}
		Alltoallv(c, 20, send)
		Allgatherv(c, 30, []int64{int64(c.Rank())})
		c.Barrier()
	})

	var spanBytes int64
	waits, xfers := 0, 0
	for _, tj := range rec.Tracks() {
		for _, s := range tj.Spans {
			switch s.Cat {
			case "wait":
				waits++
			case "xfer":
				spanBytes += s.Bytes
				xfers++
			}
		}
	}
	if waits == 0 || xfers == 0 {
		t.Fatalf("expected wait and xfer spans, got %d waits, %d xfers", waits, xfers)
	}
	if total := st.TotalBytes(); spanBytes != total {
		t.Fatalf("span bytes %d != metered stats total %d", spanBytes, total)
	}
	if len(rec.Tracks()) != ranks {
		t.Fatalf("expected %d tracks, got %d", ranks, len(rec.Tracks()))
	}
}

// TestCommMatrixJSON checks the heat-map export: shape, class labels,
// and the conservation law that summed
// send and receive columns both equal the class's metered global bytes.
func TestCommMatrixJSON(t *testing.T) {
	const ranks = 4
	st := Run(ranks, func(c *Comm) {
		buf := make([]complex128, 64)
		Bcast(c, 0, 1, buf)
		v := []float64{1}
		AllreduceSum(c, 10, v)
	})
	data, err := st.MatrixJSON()
	if err != nil {
		t.Fatalf("MatrixJSON: %v", err)
	}
	var m CommMatrix
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Ranks != ranks || len(m.SentBytes) != ranks || len(m.RecvBytes) != ranks {
		t.Fatalf("matrix shape wrong: %+v", m)
	}
	if len(m.Classes) != int(numClasses) || m.Classes[ClassBcast] != "MPI_Bcast" {
		t.Fatalf("class labels wrong: %v", m.Classes)
	}
	if m.TotalBytes != st.TotalBytes() {
		t.Fatalf("total %d != %d", m.TotalBytes, st.TotalBytes())
	}
	for cl := 0; cl < int(numClasses); cl++ {
		var sent, recv int64
		for r := 0; r < ranks; r++ {
			sent += m.SentBytes[r][cl]
			recv += m.RecvBytes[r][cl]
		}
		if want := st.BytesFor(OpClass(cl)); sent != want || recv != want {
			t.Fatalf("class %d: sent %d recv %d, metered %d", cl, sent, recv, want)
		}
	}
}
