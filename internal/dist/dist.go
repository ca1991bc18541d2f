// Package dist implements the paper's section 3 parallelization on the
// goroutine message-passing runtime of internal/mpi: the two-dimensional
// band-index x G-space decomposition of Fig. 1, the MPI_Alltoallv layout
// transpose between the two layouts, the two Fock-exchange communication
// schedules of section 3.2 (sequential broadcast, broadcast overlapped
// with computation), single-precision MPI payloads (optimization 4), and a
// distributed PT-CN propagator that mirrors Algorithm 1 band-block by
// band-block.
//
// Layouts. In the band-index layout each rank owns a contiguous block of
// bands with every G coefficient of those bands: this is where H*Psi, the
// Fock exchange and the Anderson mixing run, because each of those is
// independent per band once the shared state (potential, exchange
// reference orbitals) is in place. In the G-space layout each rank owns a
// contiguous slab of the G sphere for every band: this is where overlap
// matrices, the PT residual projection and the Trsm orthogonalization run,
// because those couple all bands at each G. BandToGWS/GToBandWS transpose
// between the two with one MPI_Alltoallv, exactly the data movement the
// paper's Fig. 1 depicts.
//
// See DESIGN.md for the decomposition walkthrough and the deviations from
// the paper's Summit implementation.
package dist

import (
	"fmt"

	"ptdft/internal/grid"
	"ptdft/internal/mpi"
)

// Tag blocks for the collectives of one Ctx. Collectives are issued in the
// same order on every rank, and the mailbox runtime preserves per-tag FIFO
// order, so a fixed tag per call site is safe; only the pipelined exchange
// broadcast needs a distinct tag per band (two broadcasts are in flight at
// once).
const (
	tagGather     = 10
	tagBandToG    = 20
	tagGToBand    = 30
	tagDensity    = 40      // AllreduceSum consumes 40 and 41
	tagOverlap    = 50      // AllreduceSum consumes 50 and 51
	tagScalars    = 60      // AllreduceSum consumes 60 and 61
	tagCurrent    = 70      // AllreduceSum consumes 70 and 71
	tagExcited    = 80      // AllreduceSum consumes 80 and 81
	tagACE        = 90      // AllreduceSum consumes 90 and 91 (build overlap)
	tagACEProj    = 100     // AllreduceSum consumes 100 and 101 (apply projections)
	tagForces     = 110     // AllreduceSum consumes 110 and 111 (ion force partials)
	tagExchReturn = 120     // returnToOwners: the pair-symmetric schedules' Alltoallv
	tagExchBcast  = 1 << 10 // + global band index
)

// Ctx owns one rank's view of the band-index x G-space decomposition: the
// communicator, the grid, and the partition arithmetic shared by the
// transpose, gather and exchange operations.
type Ctx struct {
	C    *mpi.Comm
	G    *grid.Grid
	NB   int // global number of bands
	Dims int // decomposition dimensions: 1 = band only, 2 = band x G
}

// NewCtx validates and builds the decomposition context. dims selects how
// many index spaces are partitioned: 1 partitions bands only (no transposed
// layout, so the G-space operations are unavailable), 2 partitions both
// bands and the G sphere across the same ranks as the paper does.
func NewCtx(c *mpi.Comm, g *grid.Grid, nb, dims int) (*Ctx, error) {
	if c == nil || g == nil {
		return nil, fmt.Errorf("dist: nil communicator or grid")
	}
	if dims != 1 && dims != 2 {
		return nil, fmt.Errorf("dist: unsupported decomposition dims %d (want 1 or 2)", dims)
	}
	if nb < 1 {
		return nil, fmt.Errorf("dist: non-positive band count %d", nb)
	}
	if nb < c.Size() {
		return nil, fmt.Errorf("dist: %d bands cannot feed %d ranks (band-index parallelization needs ranks <= bands)", nb, c.Size())
	}
	if dims == 2 && g.NG < c.Size() {
		return nil, fmt.Errorf("dist: G sphere of %d coefficients cannot be sliced across %d ranks", g.NG, c.Size())
	}
	return &Ctx{C: c, G: g, NB: nb, Dims: dims}, nil
}

// BandRange returns the contiguous half-open global band range [lo, hi)
// owned by rank. Blocks are balanced to within one band, cover [0, NB)
// without gaps, and are ordered by rank.
func (d *Ctx) BandRange(rank int) (lo, hi int) {
	size := d.C.Size()
	return rank * d.NB / size, (rank + 1) * d.NB / size
}

// NumLocalBands returns the number of bands this rank owns.
func (d *Ctx) NumLocalBands() int {
	lo, hi := d.BandRange(d.C.Rank())
	return hi - lo
}

// bandOwner returns the rank owning global band i under the balanced
// contiguous partition.
func (d *Ctx) bandOwner(i int) int {
	size := d.C.Size()
	// Inverse of BandRange: the candidate from the uniform estimate is off
	// by at most one in either direction.
	r := i * size / d.NB
	for {
		lo, hi := d.BandRange(r)
		if i < lo {
			r--
		} else if i >= hi {
			r++
		} else {
			return r
		}
	}
}

// GRange returns the contiguous half-open G-sphere slab [lo, hi) owned by
// rank in the transposed layout, with the same balanced-partition
// invariants as BandRange.
func (d *Ctx) GRange(rank int) (lo, hi int) {
	size := d.C.Size()
	return rank * d.G.NG / size, (rank + 1) * d.G.NG / size
}

// NumLocalG returns the width of this rank's G slab.
func (d *Ctx) NumLocalG() int {
	lo, hi := d.GRange(d.C.Rank())
	return hi - lo
}

// Gather reassembles the full band-major orbital set from every rank's
// local block (MPI_Allgatherv); every rank returns the complete NB x NG
// array. Collective: all ranks must call it together.
func (d *Ctx) Gather(local []complex128) []complex128 {
	ng := d.G.NG
	if len(local) != d.NumLocalBands()*ng {
		panic(fmt.Sprintf("dist: Gather local block has %d coefficients, want %d bands x %d", len(local), d.NumLocalBands(), ng))
	}
	parts := mpi.Allgatherv(d.C, tagGather, local)
	out := make([]complex128, d.NB*ng)
	for r := 0; r < d.C.Size(); r++ {
		lo, _ := d.BandRange(r)
		copy(out[lo*ng:], parts[r])
	}
	return out
}

// TransposeWorkspace holds the send-side staging of the layout transposes
// so repeated BandToGWS/GToBandWS calls perform no caller-side allocations:
// one flat backing array re-sliced into per-rank blocks each call. The
// receive-side copies made inside the mpi layer model the wire and are not
// the caller's to avoid.
type TransposeWorkspace struct {
	send [][]complex128
	flat []complex128
}

// NewTransposeWorkspace allocates transpose staging for this rank's band
// block: nbl x NG outbound in the band->G direction, NB x local slab in the
// G->band direction (the two differ by partition remainders).
func (d *Ctx) NewTransposeWorkspace() *TransposeWorkspace {
	n := d.NumLocalBands() * d.G.NG
	if m := d.NB * d.NumLocalG(); m > n {
		n = m
	}
	return &TransposeWorkspace{
		send: make([][]complex128, d.C.Size()),
		flat: make([]complex128, n),
	}
}

// roundSingle rounds a block through the single-precision wire format in
// place, so a size-1 communicator sees the same rounding as a real transfer.
func roundSingle(x []complex128) {
	for i := range x {
		x[i] = complex128(complex64(x[i]))
	}
}

// BandToGWS transposes this rank's band-layout block (local bands x full
// NG) into the G-space layout (all NB bands x local G slab, the
// caller-owned dst) with one MPI_Alltoallv through the staging workspace
// tw. When single is true the wire payload is down-converted to complex64,
// halving the transpose volume (section 3.2, optimization 4); dst is
// always complex128. Collective.
func (d *Ctx) BandToGWS(dst, local []complex128, single bool, tw *TransposeWorkspace) {
	if d.Dims < 2 {
		panic("dist: BandToG requires a dims=2 decomposition")
	}
	ng := d.G.NG
	nbl := d.NumLocalBands()
	if len(local) != nbl*ng {
		panic("dist: BandToG local block size mismatch")
	}
	w := d.NumLocalG()
	if len(dst) != d.NB*w {
		panic("dist: BandToG destination size mismatch")
	}
	size := d.C.Size()
	if size == 1 {
		// The two layouts coincide on one rank; only the wire rounding of
		// the single-precision format remains observable.
		copy(dst, local)
		if single {
			roundSingle(dst)
		}
		return
	}
	off := 0
	for r := 0; r < size; r++ {
		glo, ghi := d.GRange(r)
		rw := ghi - glo
		buf := tw.flat[off : off+nbl*rw]
		off += nbl * rw
		for j := 0; j < nbl; j++ {
			copy(buf[j*rw:(j+1)*rw], local[j*ng+glo:j*ng+ghi])
		}
		tw.send[r] = buf
	}
	recv := d.alltoallv(tw.send, tagBandToG, single)
	for r := 0; r < size; r++ {
		blo, bhi := d.BandRange(r)
		for j := 0; j < bhi-blo; j++ {
			copy(dst[(blo+j)*w:(blo+j+1)*w], recv[r][j*w:(j+1)*w])
		}
	}
}

// GToBand is the inverse transpose: from the G-space layout (all NB bands x
// local G slab) back to this rank's band-layout block. Collective.
func (d *Ctx) GToBand(gd []complex128, single bool) []complex128 {
	out := make([]complex128, d.NumLocalBands()*d.G.NG)
	d.GToBandWS(out, gd, single, d.NewTransposeWorkspace())
	return out
}

// GToBandWS is GToBand with a caller-owned destination (local bands x NG)
// and staging workspace. Collective.
func (d *Ctx) GToBandWS(dst, gd []complex128, single bool, tw *TransposeWorkspace) {
	if d.Dims < 2 {
		panic("dist: GToBand requires a dims=2 decomposition")
	}
	w := d.NumLocalG()
	if len(gd) != d.NB*w {
		panic("dist: GToBand slab size mismatch")
	}
	ng := d.G.NG
	nbl := d.NumLocalBands()
	if len(dst) != nbl*ng {
		panic("dist: GToBand destination size mismatch")
	}
	size := d.C.Size()
	if size == 1 {
		copy(dst, gd)
		if single {
			roundSingle(dst)
		}
		return
	}
	off := 0
	for r := 0; r < size; r++ {
		blo, bhi := d.BandRange(r)
		buf := tw.flat[off : off+(bhi-blo)*w]
		off += (bhi - blo) * w
		for j := blo; j < bhi; j++ {
			copy(buf[(j-blo)*w:(j-blo+1)*w], gd[j*w:(j+1)*w])
		}
		tw.send[r] = buf
	}
	recv := d.alltoallv(tw.send, tagGToBand, single)
	for r := 0; r < size; r++ {
		rglo, rghi := d.GRange(r)
		rw := rghi - rglo
		for j := 0; j < nbl; j++ {
			copy(dst[j*ng+rglo:j*ng+rghi], recv[r][j*rw:(j+1)*rw])
		}
	}
}

// alltoallv runs the personalized all-to-all in double or single wire
// precision. In single mode every block - including the rank's own - is
// passed through complex64, so all ranks see identically rounded data.
func (d *Ctx) alltoallv(send [][]complex128, tag int, single bool) [][]complex128 {
	if !single {
		return mpi.Alltoallv(d.C, tag, send)
	}
	s32 := make([][]complex64, len(send))
	for i := range send {
		s32[i] = mpi.SingleOf(send[i])
	}
	r32 := mpi.Alltoallv(d.C, tag, s32)
	out := make([][]complex128, len(r32))
	for i := range r32 {
		out[i] = mpi.DoubleOf(r32[i])
	}
	return out
}
