// Work-stealing Fock-exchange schedule: the static band-ownership loops of
// the other strategies are replaced by a dynamic work queue over the
// symmetric exchange pairs, following the HONPAS dynamic parallel
// distribution algorithm (arXiv:2009.03555). Ranks claim chunks of
// consecutive pairs through an MPI_Fetch_and_op counter while the band
// broadcasts run ahead of the contraction, so a straggling rank claims
// fewer chunks instead of gating every one of the nb broadcast rounds.
//
// Two schedule shapes share the machinery:
//
//   - Triangle: when the reference and target are one block by storage
//     (selfReferenced) at full wire precision (the dominant case - the exact
//     operator on the live iterate, the ACE build), one Poisson solve serves
//     the unordered pair (i, j): acc_j += -alpha phi_i v and acc_i += -alpha
//     phi_j conj(v) with v = Poisson[phi_i^* phi_j], exactly the serial
//     operator's pair symmetry. nb(nb+1)/2 solves instead of nb*nb.
//   - Rectangle: when the blocks differ (frozen MTS references) or the
//     wire rounds phi to single precision (the mirrored contribution would
//     diverge from the bcast result at wire precision), every ordered pair
//     (i, j) is scheduled and contributes only to target j, from exactly
//     the inputs the bcast strategy uses: wire-precision phi_i, full-
//     precision psi_j (targets always ship in double).
//
// Pairs are ordered by their readiness index m = max(i, j): a chunk is
// contractable as soon as band m has arrived, so claims overlap the
// broadcast pipeline instead of waiting for the full reference set.
//
// Contributions to bands this rank does not own are staged in real space
// (any rank may claim any pair, so NB rows of it) and go home through
// ExchangeWorkspace.returnToOwners, the return path the static strategies'
// pair-symmetric fold uses too; the result matches bcast to accumulation-
// order rounding regardless of which rank computed which pair.
package dist

import (
	"ptdft/internal/fock"
	"ptdft/internal/lanes"
)

// stealState holds the work-stealing schedule's buffers, allocated lazily
// on the first Steal call and reused forever after (the steady-state
// exchange performs no allocations on one rank; on several ranks only the
// mailbox copies of the mpi layer remain).
type stealState struct {
	// Schedule, cached for (nb, rect): positions map to pairs through
	// pairI/pairJ, readiness-ordered (see stealFillPairs).
	rect   bool
	npairs int
	pairI  []int32
	pairJ  []int32

	allR    lanes.Slab // NB x NTot: every reference band in real space (SoA)
	psiAllR lanes.Slab // NB x NTot: every target band (rectangle, size > 1)
	psiBand [2][]complex128
	remR    lanes.Slab // NB x NTot: accumulators for bands owned elsewhere (SoA)
	touched []bool     // NB: remote bands this rank contributed to
}

// stealPairCount returns how many pairs the schedule hands out.
func stealPairCount(nb int, rect bool) int {
	if rect {
		return nb * nb
	}
	return nb * (nb + 1) / 2
}

// stealFillPairs writes the readiness-ordered pair schedule into pi/pj
// (each at least stealPairCount long): block m lists every pair whose
// larger band index is m, so positions [0, cum(m)) only need bands
// [0, m] - the claim loop can contract them while later broadcasts are
// still in flight. Triangle blocks hold (i, m) for i <= m; rectangle
// blocks add the transposed (m, j) for j < m.
func stealFillPairs(nb int, rect bool, pi, pj []int32) {
	t := 0
	for m := 0; m < nb; m++ {
		for i := 0; i <= m; i++ {
			pi[t], pj[t] = int32(i), int32(m)
			t++
		}
		if rect {
			for j := 0; j < m; j++ {
				pi[t], pj[t] = int32(m), int32(j)
				t++
			}
		}
	}
}

// stealChunkSize resolves the pairs-per-claim granularity: the requested
// size, or a default targeting about eight claims per rank - fine enough
// that a 2x straggler sheds most of its share to the fast ranks, coarse
// enough that counter traffic stays negligible next to the Poisson solves
// (one 8-byte fetch-and-op buys a chunk of full-box FFT pipelines).
func stealChunkSize(npairs, size, req int) int {
	if req > 0 {
		return req
	}
	c := npairs / (8 * size)
	if c < 1 {
		c = 1
	}
	return c
}

// ensureSteal sizes the schedule and buffers for this exchange shape.
// Everything is grown once and kept; switching between triangle and
// rectangle (the MTS cadence alternates them) only refills the pair index
// tables in place.
func (ws *ExchangeWorkspace) ensureSteal(rect bool) *stealState {
	d := ws.g
	ng, ntot, nb := d.G.NG, d.G.NTot, d.NB
	size := d.C.Size()
	st := ws.steal
	if st == nil {
		st = &stealState{npairs: -1}
		ws.steal = st
	}
	if cap(st.pairI) < nb*nb {
		st.pairI = make([]int32, nb*nb)
		st.pairJ = make([]int32, nb*nb)
		st.npairs = -1
	}
	if st.npairs < 0 || st.rect != rect {
		st.rect, st.npairs = rect, stealPairCount(nb, rect)
		stealFillPairs(nb, rect, st.pairI, st.pairJ)
	}
	if st.allR.Len() < nb*ntot {
		st.allR = lanes.New(nb * ntot)
	}
	if size > 1 {
		if st.remR.Len() < nb*ntot {
			st.remR = lanes.New(nb * ntot)
			st.touched = make([]bool, nb)
		}
		if rect && st.psiAllR.Len() < nb*ntot {
			st.psiAllR = lanes.New(nb * ntot)
			st.psiBand[0] = make([]complex128, ng)
			st.psiBand[1] = make([]complex128, ng)
		}
	}
	return st
}

// stealDst returns the real-space SoA accumulator for band b: the local
// acc row when this rank owns b, the staged remote row otherwise.
func (ws *ExchangeWorkspace) stealDst(b, myLo int, st *stealState) lanes.Slab {
	ntot := ws.g.G.NTot
	if b >= myLo && b < myLo+ws.nbl {
		return ws.acc.Row(b-myLo, ntot)
	}
	st.touched[b] = true
	return st.remR.Row(b, ntot)
}

// stealContract folds one claimed pair. Pairs within a chunk run serially
// on the claiming rank (they share target rows); rank-level stealing is
// the parallel dimension of this schedule.
func (ws *ExchangeWorkspace) stealContract(i, j, myLo int, st *stealState) {
	d := ws.g
	ntot := d.G.NTot
	phiI := st.allR.Row(i, ntot)
	pair := ws.pairs.Row(0, ntot)
	if st.rect {
		// One-sided fold from the bcast strategy's exact inputs: wire-
		// precision reference i, full-precision target j.
		var src lanes.Slab
		if j >= myLo && j < myLo+ws.nbl {
			src = ws.psiReal.Row(j-myLo, ntot)
		} else {
			src = st.psiAllR.Row(j, ntot)
		}
		fock.ContractReferenceWS(d.G, ws.kernel, ws.alpha, phiI, src, ws.stealDst(j, myLo, st), pair, ws.fft[0])
		return
	}
	// Symmetric fold: one Poisson solve serves both sides of the pair,
	// the serial operator's two-sided SoA contraction. stealDst(j) before
	// stealDst(i) keeps the touched-marking order of the scalar path.
	accJ := ws.stealDst(j, myLo, st)
	phiJ := st.allR.Row(j, ntot)
	if i == j {
		fock.ContractPairReferenceWS(d.G, ws.kernel, ws.alpha, phiI, phiJ, accJ, accJ, pair, true, ws.fft[0])
		return
	}
	accI := ws.stealDst(i, myLo, st)
	fock.ContractPairReferenceWS(d.G, ws.kernel, ws.alpha, phiI, phiJ, accI, accJ, pair, false, ws.fft[0])
}

// exchangeSteal runs the dynamic schedule: pipeline the band broadcasts,
// claim readiness-ordered pair chunks from the shared counter, contract,
// then reduce remotely-computed contributions to their owners.
func (d *Ctx) exchangeSteal(phi, psi []complex128, single bool, chunkReq int, ws *ExchangeWorkspace) {
	ng, ntot, nb := d.G.NG, d.G.NTot, d.NB
	rank, size := d.C.Rank(), d.C.Size()
	myLo, _ := d.BandRange(rank)
	rect := !ws.sym
	st := ws.ensureSteal(rect)
	chunk := stealChunkSize(st.npairs, size, chunkReq)
	nchunks := (st.npairs + chunk - 1) / chunk

	if size == 1 {
		// Single-rank fast path: no counter, no broadcasts, no reduce,
		// and no goroutines - the zero-allocation steady state. Only the
		// wire rounding of the single-precision format remains observable.
		buf := ws.band[0]
		for i := 0; i < nb; i++ {
			copy(buf, phi[i*ng:(i+1)*ng])
			if single {
				roundSingle(buf)
			}
			d.G.ToRealSlabWS(st.allR.Row(i, ntot), buf, ws.fftPhi)
		}
		t0 := d.C.WorkStart()
		for t := 0; t < st.npairs; t++ {
			ws.stealContract(int(st.pairI[t]), int(st.pairJ[t]), myLo, st)
		}
		d.C.WorkEnd(t0)
		return
	}

	// Broadcast-ahead pipeline: the fetch of band i+1 is posted as soon as
	// band i lands, re-using the overlapped strategy's ping-pong wire
	// buffers and handoff channel; ensure(m) drains the pipeline just far
	// enough for the claimed chunk. Rectangle mode rides a second,
	// always-double broadcast of the target bands on its own tag block.
	fetch := func(i int) {
		go func() {
			defer ws.forwardFault()
			buf := ws.band[i%2]
			owner := d.bandOwner(i)
			if owner == rank {
				copy(buf, phi[(i-myLo)*ng:(i-myLo+1)*ng])
			}
			d.bcastBand(buf, owner, tagExchBcast+i, single)
			if rect {
				pb := st.psiBand[i%2]
				if owner == rank {
					copy(pb, psi[(i-myLo)*ng:(i-myLo+1)*ng])
				}
				d.bcastBand(pb, owner, tagExchPsi+i, false)
			}
			ws.ch <- buf
		}()
	}
	received := 0
	ensure := func(m int) {
		for received <= m {
			buf, ok := <-ws.ch
			if !ok {
				ws.refault()
			}
			if received+1 < nb {
				fetch(received + 1)
			}
			d.G.ToRealSlabWS(st.allR.Row(received, ntot), buf, ws.fftPhi)
			if rect && d.bandOwner(received) != rank {
				d.G.ToRealSlabWS(st.psiAllR.Row(received, ntot), st.psiBand[received%2], ws.fftPhi)
			}
			received++
		}
	}
	fetch(0)

	// Claim loop: tickets come from a communicator-unique Fetch_and_op
	// counter; each rank overshoots nchunks exactly once, so the rank
	// drawing the last ticket retires the counter.
	key := d.C.WorkQueueTicket()
	for {
		t := int(d.C.FetchAdd(key, 1))
		if t >= nchunks {
			if t == nchunks+size-1 {
				d.C.ForgetCounter(key)
			}
			break
		}
		lo := t * chunk
		hi := lo + chunk
		if hi > st.npairs {
			hi = st.npairs
		}
		// The chunk's last pair has its largest readiness index.
		m := int(st.pairI[hi-1])
		if int(st.pairJ[hi-1]) > m {
			m = int(st.pairJ[hi-1])
		}
		ensure(m)
		// One span per claimed chunk (n = chunk ticket), so the timeline
		// shows which rank won which chunk and how long its fold took -
		// the signature a steal-pipeline stall is diagnosed from.
		chunkRef := d.C.Trace().Begin("steal_chunk", "sched")
		t0 := d.C.WorkStart()
		for p := lo; p < hi; p++ {
			ws.stealContract(int(st.pairI[p]), int(st.pairJ[p]), myLo, st)
		}
		d.C.WorkEnd(t0)
		d.C.Trace().EndN(chunkRef, int64(t))
	}
	// Every rank participates in every broadcast: drain the pipeline even
	// if all remaining chunks were stolen by someone else.
	ensure(nb - 1)

	// Project the staged remote accumulators onto the sphere for
	// returnToOwners; untouched rows go as zeros.
	for b := 0; b < nb; b++ {
		if d.bandOwner(b) == rank {
			continue
		}
		row := ws.remG[b*ng : (b+1)*ng]
		if st.touched[b] {
			d.G.FromRealSlabWS(row, st.remR.Row(b, ntot), ws.fft[0])
			st.remR.Row(b, ntot).Zero()
			st.touched[b] = false
		} else {
			clear(row)
		}
	}
}
