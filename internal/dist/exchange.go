// Fock-exchange communication: the broadcast loop of section 3.2 that
// ships the reference orbitals phi to every rank, and the distributed
// application of the screened exchange operator to the local band block.
package dist

import (
	"ptdft/internal/fock"
	"ptdft/internal/lanes"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
)

// ExchangeStrategy names the exchange schedule. There is one, the broadcast
// loop, so the type carries no value; bench/ still names
// ExchangeOptions.Strategy.
type ExchangeStrategy struct{}

// String names the schedule as stored specs spell it ("overlap", the name
// the one schedule had when it overlapped its broadcasts).
func (ExchangeStrategy) String() string { return "overlap" }

// ExchangeOptions bundle the exchange cadence of the distributed solver.
// The orbitals always travel in double precision: the paper's
// single-precision MPI (section 3.2, optimization 4) is modelled by
// perf.Model, not run. SinglePrecision stays only because bench/ still
// names it; FockExchangeWS panics when it is set.
type ExchangeOptions struct {
	Strategy        ExchangeStrategy
	SinglePrecision bool

	// ACE applies the Fock operator through the distributed adaptively
	// compressed exchange (dist.ACE), held with period MTSPeriod: each
	// application costs two layout transposes plus one nb x nb Allreduce
	// instead of nb broadcasts and the pair solves. Consumed by PTCNSolver;
	// FockExchange itself always applies the exact operator.
	ACE bool
	// MTSPeriod is the ACE hold period M >= 1, set exactly when ACE is
	// (Mandal et al., arXiv:2110.07670, adapted to the PT-CN gauge): Xi is
	// rebuilt from Psi_n only on outer steps - every M-th step - and held
	// through the inner SCF iterations and the M-1 intermediate steps,
	// while the semi-local physics advances every step. M = 1 is the Jia &
	// Lin cadence (arXiv:1809.09609). Without ACE the exact operator acts on
	// the iterate at every residual and there is no cadence. PTCNSolver
	// runs it as CN.MTS.
	MTSPeriod int
}

// ExchangeWorkspace holds every buffer one rank's FockExchange needs:
// real-space band blocks, per-worker fock.Workspace scratch (worker 0's
// pair stream runs the fold), the held bands, the broadcast's wire
// buffer, and the result block.
// The distributed solver builds one per rank and reuses it across SCF
// iterations, so the steady-state exchange performs no band-block
// allocations (the mailbox copies inside the mpi layer's Send/Bcast
// semantics remain - they model the wire).
type ExchangeWorkspace struct {
	g       *Ctx
	psiReal lanes.Slab        // nbl x NTot: local bands in real space (SoA)
	acc     lanes.Slab        // nbl x NTot: exchange accumulators (SoA)
	wss     []*fock.Workspace // nw: per-worker scratch
	band    []complex128      // NG: the wire buffer of the broadcast loop
	vx      []complex128      // nbl x NG: result block, valid until the next call

	// nbl is bound per application so the broadcast loop calls ws.process
	// as a plain method, not a freshly allocated closure (the solver hot
	// loop's zero-allocation contract).
	nbl int

	// Arriving bands held, round robin, until their pairs are solved: slot k
	// holds band heldBand[k] (-1: none) in real space and its mirrored
	// accumulator. A slot comes round again after at least Width-1 more
	// queued pairs, and the stream never leaves more than Width-1 unsolved.
	// Allocated on first use.
	held, heldAcc lanes.Slab
	heldBand      [lanes.Width]int
	nheld         int

	// The staging of returnToOwners, allocated on the first multi-rank
	// application.
	remG []complex128   // NB x NG: finished rows for bands owned elsewhere, on the sphere
	send [][]complex128 // Alltoallv views into remG, one per rank
}

// NewExchangeWorkspace allocates the exchange scratch for this rank's band
// block. Per-worker buffers are sized for the current worker bound and
// regrown on demand if it is raised later.
func (d *Ctx) NewExchangeWorkspace() *ExchangeWorkspace {
	ng, ntot, nbl := d.G.NG, d.G.NTot, d.NumLocalBands()
	ws := &ExchangeWorkspace{
		g:       d,
		psiReal: lanes.New(nbl * ntot),
		acc:     lanes.New(nbl * ntot),
		band:    make([]complex128, ng),
		vx:      make([]complex128, nbl*ng),
	}
	ws.ensureWorkers(parallel.NumWorkers(nbl))
	return ws
}

// ensureWorkers grows the per-worker scratch to cover nw workers. Scratch
// scales with parallelism, not band count.
func (ws *ExchangeWorkspace) ensureWorkers(nw int) {
	for len(ws.wss) < nw {
		ws.wss = append(ws.wss, fock.NewWorkspace(ws.g.G))
	}
}

// selfReferenced reports whether phi and psi are one block by storage, the
// rule Hamiltonian.PreparedFor uses: the case where one Poisson solve serves
// both (i, j) and (j, i). Every call site passes one block - the solver the
// iterate as its own reference, ACE.Rebuild phi twice - and FockExchangeWS
// refuses anything else.
func selfReferenced(phi, psi []complex128) bool {
	return len(phi) > 0 && len(phi) == len(psi) && &phi[0] == &psi[0]
}

// FockExchangeWS applies the distributed screened Fock exchange
// V_X[phi] phi_j for every local band j and returns the band-major result
// (sphere coefficients): each reference band phi_i - owned rank by rank
// across the communicator - is broadcast to every rank and folded into the
// accumulators with one fused FFT Poisson solve per unordered pair {i, j},
// the Alg. 2 inner loop with the pair symmetry of Jia & Lin
// (arXiv:1809.09609). phi and psi must be one block, this rank's
// (selfReferenced); kernel is the screened Coulomb kernel K(G) on the
// wavefunction box (fock.BuildKernel); alpha is the exchange mixing
// fraction. The scratch is the caller's: the returned slice is ws.vx and
// stays valid until the next call with the same workspace. Collective:
// all ranks must call it together with the same options.
func (d *Ctx) FockExchangeWS(phi, psi []complex128, kernel []float64, alpha float64, opt ExchangeOptions, ws *ExchangeWorkspace) []complex128 {
	exRef := d.C.Trace().Begin("exchange", "solver")
	defer d.C.Trace().End(exRef)
	ng := d.G.NG
	ntot := d.G.NTot
	nbl := d.NumLocalBands()
	if len(psi) != nbl*ng || !selfReferenced(phi, psi) || opt.SinglePrecision {
		panic("dist: FockExchange wants phi and psi to be one block of this rank's bands, on the double-precision wire")
	}
	if len(kernel) != ntot {
		panic("dist: FockExchange kernel must cover the wavefunction box")
	}

	nw := parallel.NumWorkers(nbl)
	ws.ensureWorkers(nw)
	ws.nbl = nbl
	// The fold solves pairs for bands owned elsewhere; those rows go home
	// after the projection below.
	if d.C.Size() > 1 && ws.remG == nil {
		ws.remG = make([]complex128, d.NB*ng)
		ws.send = make([][]complex128, d.C.Size())
		for r := range ws.send {
			lo, hi := d.BandRange(r)
			ws.send[r] = ws.remG[lo*ng : hi*ng]
		}
	}

	// Real-space local psi bands and accumulators, computed once. The
	// nw <= 1 branches run the loops inline - no closures, no goroutines -
	// which is the zero-allocation steady state the solver alloc test pins.
	fftRef := d.C.Trace().Begin("fft_to_real", "fft")
	if nw <= 1 {
		for j := 0; j < nbl; j++ {
			d.G.ToRealSlabWS(ws.psiReal.Row(j, ntot), psi[j*ng:(j+1)*ng], ws.wss[0].FFT)
		}
	} else {
		parallel.ForWorker(nbl, func(w, j int) {
			d.G.ToRealSlabWS(ws.psiReal.Row(j, ntot), psi[j*ng:(j+1)*ng], ws.wss[w].FFT)
		})
	}
	d.C.Trace().EndN(fftRef, int64(nbl))
	ws.acc.Zero()
	ws.wss[0].Pairs.Start(d.G, kernel, alpha, ws.wss[:nw])
	ws.heldBand, ws.nheld = [lanes.Width]int{-1, -1, -1, -1, -1, -1, -1, -1}, 0

	d.broadcastBands(phi, ws)

	fftRef = d.C.Trace().Begin("fft_from_real", "fft")
	if nw <= 1 {
		for j := 0; j < nbl; j++ {
			d.G.FromRealSlabWS(ws.vx[j*ng:(j+1)*ng], ws.acc.Row(j, ntot), ws.wss[0].FFT)
		}
	} else {
		parallel.ForWorker(nbl, func(w, j int) {
			d.G.FromRealSlabWS(ws.vx[j*ng:(j+1)*ng], ws.acc.Row(j, ntot), ws.wss[w].FFT)
		})
	}
	d.C.Trace().EndN(fftRef, int64(nbl))
	if d.C.Size() > 1 {
		ws.returnToOwners()
	}
	return ws.vx
}

// returnToOwners ships the rows staged in remG to their owners with one
// dense Alltoallv of sphere coefficients and adds what the other ranks
// computed for this rank's bands into vx in rank order: always every
// non-owned band, zeros where nothing was contributed.
func (ws *ExchangeWorkspace) returnToOwners() {
	d := ws.g
	ref := d.C.Trace().Begin("exchange_return", "solver")
	parts := mpi.Alltoallv(d.C, tagExchReturn, ws.send)
	for r, blk := range parts {
		if r == d.C.Rank() {
			continue
		}
		for i := range blk {
			ws.vx[i] += blk[i]
		}
	}
	d.C.Trace().End(ref)
}

// process queues the pairs of global reference band i (sphere
// coefficients) on worker 0's pair stream and, after the last band, solves
// what is still queued; the contract span counts the band's solves.
func (ws *ExchangeWorkspace) process(band []complex128, i int) {
	d := ws.g
	ref := d.C.Trace().Begin("contract", "fock")
	n := ws.processSymmetric(band, i)
	if i == d.NB-1 {
		ws.wss[0].Pairs.Flush()
		for k := range ws.heldBand {
			ws.project(k)
		}
	}
	d.C.Trace().EndN(ref, int64(n))
}

// project empties held slot k, staging its finished mirrored sum on the
// sphere for returnToOwners.
func (ws *ExchangeWorkspace) project(k int) {
	ng := ws.g.G.NG
	if i := ws.heldBand[k]; i >= 0 {
		ws.g.G.FromRealSlabWS(ws.remG[i*ng:(i+1)*ng], ws.heldAcc.Row(k, ws.g.G.NTot), ws.wss[0].FFT)
	}
	ws.heldBand[k] = -1
}

// processSymmetric queues the two-sided fold: one Poisson solve per
// unordered pair {i, j} serves acc_j and, mirrored, band i
// (fock.PairStream.FoldPairs, the fold the serial operator runs). It
// returns the number of solves.
//
// Ownership: a band of this rank's own block meets its local partners
// j >= i, with no communication at all. A band owned elsewhere meets the
// checkerboard half of the block - the pair {a < b} belongs to owner(b) when
// a + b is even and to owner(a) otherwise - so every unordered pair is solved
// once across ranks; it is held until its pairs are solved, and its mirrored
// sum then goes to the sphere and is staged for returnToOwners, which keeps
// the real-space memory at O(nbl + Width) rows.
func (ws *ExchangeWorkspace) processSymmetric(band []complex128, i int) int {
	d := ws.g
	ng, ntot, nbl := d.G.NG, d.G.NTot, ws.nbl
	s := &ws.wss[0].Pairs
	lo, _ := d.BandRange(d.C.Rank())
	if i >= lo && i < lo+nbl {
		s.FoldPairs(ws.psiReal.Row(i-lo, ntot), ws.acc.Row(i-lo, ntot), ws.psiReal, ws.acc, i-lo, 1, nbl-(i-lo), true)
		return nbl - (i - lo)
	}
	// Partners are the local bands j0, j0+2, ...
	j0 := (i + lo) % 2
	if i > lo {
		j0 = 1 - j0 // i is the pair's upper band: ours when the sum is odd
	}
	n := (nbl - j0 + 1) / 2
	if n == 0 { // a one-band block on the other colour
		clear(ws.remG[i*ng : (i+1)*ng])
		return 0
	}
	// Hold band i in the next slot, its mirrored accumulator zeroed.
	if ws.held.Len() == 0 {
		ws.held, ws.heldAcc = lanes.New(lanes.Width*ntot), lanes.New(lanes.Width*ntot)
	}
	k := ws.nheld % lanes.Width
	ws.nheld++
	ws.project(k)
	ws.heldBand[k] = i
	d.G.ToRealSlabWS(ws.held.Row(k, ntot), band, ws.wss[0].FFT)
	ws.heldAcc.Row(k, ntot).Zero()
	s.FoldPairs(ws.held.Row(k, ntot), ws.heldAcc.Row(k, ntot), ws.psiReal, ws.acc, j0, 2, n, false)
	return n
}

// broadcastBands delivers the reference bands in global order and folds
// each into the accumulators: the owner copies band i into the one wire
// buffer, mpi.Bcast ships it, and every rank folds it before band i+1 is
// sent. The paper overlaps MPI_Bcast of band i+1 with the GPU's fold of
// band i (section 3.2, optimization 5); here a broadcast is a memory copy
// on the cores that fold, and the overlapped schedule never measured
// faster (EXPERIMENTS.md), so perf.Model prices the overlap and this loop
// runs without it. One rank owns every band: nothing is broadcast.
func (d *Ctx) broadcastBands(phi []complex128, ws *ExchangeWorkspace) {
	if d.C.Size() == 1 {
		for i := 0; i < d.NB; i++ {
			ws.process(nil, i) // every band is local: its pairs read psiReal
		}
		return
	}
	ng := d.G.NG
	myLo, _ := d.BandRange(d.C.Rank())
	for i := 0; i < d.NB; i++ {
		owner := d.bandOwner(i)
		if owner == d.C.Rank() {
			copy(ws.band, phi[(i-myLo)*ng:(i-myLo+1)*ng])
		}
		mpi.Bcast(d.C, owner, tagExchBcast, ws.band)
		ws.process(ws.band, i)
	}
}
