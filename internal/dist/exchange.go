// Fock-exchange communication: the two broadcast schedules of section 3.2
// for shipping the reference orbitals phi to every rank, and the distributed
// application of the screened exchange operator to the local band block.
package dist

import (
	"fmt"
	"strings"

	"ptdft/internal/fock"
	"ptdft/internal/lanes"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
)

// ExchangeStrategy selects how the exchange reference orbitals travel.
type ExchangeStrategy int

const (
	// BcastOverlapped posts the broadcast of band i+1 while band i is
	// being folded into the local accumulators, hiding the broadcast
	// latency behind the FFT work (section 3.2, optimization 5 - the
	// paper overlaps MPI_Bcast with GPU computation the same way). The
	// zero value, and the default of every front end.
	BcastOverlapped ExchangeStrategy = iota
	// BcastSequential broadcasts each reference band from its owner in
	// global band order and computes its contribution before the next
	// broadcast starts - the paper's baseline binomial-tree scheme
	// (section 3.2, optimization 3).
	BcastSequential
)

// strategyTable is the single source of truth for strategy names: String,
// StrategyNames and ParseStrategy all derive from it, so adding a strategy
// means adding exactly one row.
var strategyTable = []struct {
	strategy ExchangeStrategy
	name     string
}{
	{BcastOverlapped, "overlap"},
	{BcastSequential, "bcast"},
}

// String names the strategy as the -exchange flag spells it.
func (s ExchangeStrategy) String() string {
	for _, e := range strategyTable {
		if e.strategy == s {
			return e.name
		}
	}
	return fmt.Sprintf("ExchangeStrategy(%d)", int(s))
}

// StrategyNames lists the recognized strategy names in flag order.
func StrategyNames() []string {
	names := make([]string, len(strategyTable))
	for i, e := range strategyTable {
		names[i] = e.name
	}
	return names
}

// ParseStrategy resolves a CLI name to a strategy, rejecting unknown names
// instead of silently mapping them to the zero value.
func ParseStrategy(name string) (ExchangeStrategy, error) {
	for _, e := range strategyTable {
		if e.name == name {
			return e.strategy, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown exchange strategy %q (valid: %s)", name, strings.Join(StrategyNames(), ", "))
}

// ExchangeOptions bundle the communication choices for one exchange
// application. SinglePrecision down-converts the orbital payloads to
// complex64 on the wire (section 3.2, optimization 4: "single precision
// MPI"), halving the dominant communication volume; wavefunctions are
// converted back to double precision for computation.
type ExchangeOptions struct {
	Strategy        ExchangeStrategy
	SinglePrecision bool

	// ACE applies the Fock operator through the distributed adaptively
	// compressed exchange (dist.ACE): Xi is constructed collectively with
	// the selected strategy and each application costs two layout
	// transposes plus one nb x nb Allreduce instead of nb broadcasts and
	// the pair solves. Consumed by PTCNSolver; FockExchange itself always
	// applies the exact operator.
	ACE bool
	// MTSPeriod enables multiple time stepping (Mandal et al.,
	// arXiv:2110.07670, adapted to the PT-CN gauge): the hybrid exchange
	// operator is refreshed from Psi_n only on "outer" steps - every M-th
	// step - and the frozen operator (the held Xi in ACE mode, the frozen
	// reference orbitals of the exact operator otherwise) propagates the
	// M-1 intermediate steps together with the per-step semi-local
	// physics. 0 disables MTS: the operator is rebuilt from the iterate at
	// every refresh, which keeps PT+ACE numerically equivalent to the
	// exact-exchange path (the compression is exact on its own reference
	// span). 1 makes every step an outer step - with ACE, Xi is built once
	// per step from Psi_n and held through the inner SCF iterations, the
	// Jia & Lin cadence (arXiv:1809.09609). PTCNSolver runs it as CN.MTS.
	MTSPeriod int
}

// ExchangeWorkspace holds every buffer one rank's FockExchange needs:
// real-space band blocks, per-worker fock.Workspace scratch (worker 0's
// pair stream runs the fold), the held bands, the wire buffers of the
// broadcast pipeline, and the result block.
// The distributed solver builds one per rank and reuses it across SCF
// iterations, so the steady-state exchange performs no band-block
// allocations (the mailbox copies inside the mpi layer's Send/Bcast
// semantics remain - they model the wire).
type ExchangeWorkspace struct {
	g       *Ctx
	psiReal lanes.Slab        // nbl x NTot: local bands in real space (SoA)
	acc     lanes.Slab        // nbl x NTot: exchange accumulators (SoA)
	wss     []*fock.Workspace // nw: per-worker scratch
	band    [2]([]complex128) // NG wire buffers (two for the overlapped pipeline)
	vx      []complex128      // nbl x NG: result block, valid until the next call
	ch      chan []complex128 // overlapped-fetch handoff, capacity 1
	fault   any               // fault panic forwarded off a fetch goroutine

	// Per-application fold state, bound by FockExchangeWS so the schedule
	// loops call ws.process as a plain method instead of through a freshly
	// allocated closure (the strict zero-allocation contract of the solver
	// hot loop). sym selects the pair-symmetric fold: reference and target
	// are one block (selfReferenced) at full wire precision.
	nbl int
	sym bool

	// Arriving bands held, round robin, until their pairs are solved: slot k
	// holds band heldBand[k] (-1: none) in real space and, in the symmetric
	// fold, its mirrored accumulator. A slot comes round again after at
	// least Width-1 more queued pairs, and the stream never leaves more
	// than Width-1 unsolved. Allocated on first use.
	held, heldAcc lanes.Slab
	heldBand      [lanes.Width]int
	nheld         int

	// The staging of returnToOwners, allocated on the first application
	// that needs it.
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
		vx:      make([]complex128, nbl*ng),
		ch:      make(chan []complex128, 1),
	}
	ws.band[0] = make([]complex128, ng)
	ws.band[1] = make([]complex128, ng)
	ws.ensureWorkers(parallel.NumWorkers(nbl))
	return ws
}

// forwardFault is deferred on every fetch-pipeline goroutine: an
// injected-fault panic there (a scheduled crash or a lost peer, raised
// inside the mpi layer) must not kill the process - only the rank's main
// goroutine is recovered by the tolerant runner. The fault is stashed and
// the handoff channel closed, so the main goroutine's next receive
// re-raises it on the recoverable goroutine. Non-fault panics are bugs
// and propagate. The workspace is dead after a forwarded fault; resilient
// drivers rebuild their contexts per attempt.
func (ws *ExchangeWorkspace) forwardFault() {
	p := recover()
	if p == nil {
		return
	}
	if !mpi.IsFault(p) {
		panic(p)
	}
	ws.fault = p
	close(ws.ch)
}

// refault re-raises a fault forwarded off a fetch goroutine (the closed-
// channel receive path).
func (ws *ExchangeWorkspace) refault() {
	if ws.fault != nil {
		panic(ws.fault)
	}
	panic("dist: fetch pipeline closed without a recorded fault")
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
// both (i, j) and (j, i). The call sites decide it - the solver passes the
// iterate as its own reference, ACE.Rebuild passes phi twice - so every rank
// takes the same branch without inspecting values.
func selfReferenced(phi, psi []complex128) bool {
	return len(phi) > 0 && len(phi) == len(psi) && &phi[0] == &psi[0]
}

// FockExchangeWS applies the distributed screened Fock exchange
// V_X[phi] psi_j for every local band j and returns the band-major result
// (sphere coefficients): each reference band phi_i - owned rank by rank
// across the communicator - is delivered to every rank by the selected
// strategy and folded into the local accumulators with one fused FFT
// Poisson solve per (i, j) pair, the Alg. 2 inner loop. phi and psi are
// this rank's band blocks; kernel is the screened Coulomb kernel K(G) on
// the wavefunction box (fock.BuildKernel); alpha is the exchange mixing
// fraction. The scratch is the caller's: the returned slice is ws.vx and
// stays valid until the next call with the same workspace. Collective:
// all ranks must call it together with the same options.
func (d *Ctx) FockExchangeWS(phi, psi []complex128, kernel []float64, alpha float64, opt ExchangeOptions, ws *ExchangeWorkspace) []complex128 {
	exRef := d.C.Trace().Begin("exchange", "solver")
	defer d.C.Trace().End(exRef)
	ng := d.G.NG
	ntot := d.G.NTot
	nbl := d.NumLocalBands()
	if len(phi) != nbl*ng || len(psi) != nbl*ng {
		panic("dist: FockExchange band block size mismatch")
	}
	if len(kernel) != ntot {
		panic("dist: FockExchange kernel must cover the wavefunction box")
	}

	nw := parallel.NumWorkers(nbl)
	ws.ensureWorkers(nw)
	ws.nbl = nbl
	ws.sym = !opt.SinglePrecision && selfReferenced(phi, psi)
	// The symmetric fold solves pairs for bands owned elsewhere; those rows
	// go home after the projection below.
	returns := d.C.Size() > 1 && ws.sym
	if returns && ws.remG == nil {
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

	if opt.Strategy == BcastSequential {
		d.exchangeBcastSequential(phi, opt.SinglePrecision, ws)
	} else {
		d.exchangeBcastOverlapped(phi, opt.SinglePrecision, ws)
	}

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
	if returns {
		ws.returnToOwners()
	}
	return ws.vx
}

// returnToOwners ships the rows staged in remG to their owners with one
// dense Alltoallv of sphere coefficients and adds what the other ranks
// computed for this rank's bands into vx in rank order. Always double
// precision (the single-precision wire rounds only the reference orbitals),
// and always every non-owned band, zeros where nothing was contributed.
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
// what is still queued; the contract span counts the band's solves. The
// one-sided fold serves what cannot use the pair symmetry (a frozen MTS
// reference, a single-precision wire), as Apply sits beside
// ApplyToReference: the held band against all nbl local rows.
func (ws *ExchangeWorkspace) process(band []complex128, i int) {
	d := ws.g
	ntot := d.G.NTot
	ref := d.C.Trace().Begin("contract", "fock")
	s := &ws.wss[0].Pairs
	n := ws.nbl
	if ws.sym {
		n = ws.processSymmetric(band, i)
	} else {
		s.FoldPairs(ws.held.Row(ws.hold(band, i), ntot), lanes.Slab{}, ws.psiReal, ws.acc, 0, 1, n, false)
	}
	if i == d.NB-1 {
		s.Flush()
		for k := range ws.heldBand {
			ws.project(k)
		}
	}
	d.C.Trace().EndN(ref, int64(n))
}

// hold converts band i into the next held slot (zeroing its accumulator in
// the symmetric fold) and returns the slot.
func (ws *ExchangeWorkspace) hold(band []complex128, i int) int {
	ntot := ws.g.G.NTot
	if ws.held.Len() == 0 {
		ws.held, ws.heldAcc = lanes.New(lanes.Width*ntot), lanes.New(lanes.Width*ntot)
	}
	k := ws.nheld % lanes.Width
	ws.nheld++
	ws.project(k)
	ws.heldBand[k] = i
	ws.g.G.ToRealSlabWS(ws.held.Row(k, ntot), band, ws.wss[0].FFT)
	if ws.sym {
		ws.heldAcc.Row(k, ntot).Zero()
	}
	return k
}

// project empties held slot k, staging a symmetric fold's finished
// mirrored sum on the sphere for returnToOwners.
func (ws *ExchangeWorkspace) project(k int) {
	ng := ws.g.G.NG
	if i := ws.heldBand[k]; ws.sym && i >= 0 {
		ws.g.G.FromRealSlabWS(ws.remG[i*ng:(i+1)*ng], ws.heldAcc.Row(k, ws.g.G.NTot), ws.wss[0].FFT)
	}
	ws.heldBand[k] = -1
}

// processSymmetric queues the two-sided fold of a self-referenced
// application: one Poisson solve per unordered pair {i, j} serves acc_j
// and, mirrored, band i (fock.PairStream.FoldPairs, the fold the serial
// operator runs). It returns the number of solves.
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
	k := ws.hold(band, i)
	s.FoldPairs(ws.held.Row(k, ntot), ws.heldAcc.Row(k, ntot), ws.psiReal, ws.acc, j0, 2, n, false)
	return n
}

// bcastBand broadcasts one band from root into buf, optionally through a
// single-precision wire format. In single mode the root's own copy passes
// through complex64 too, so every rank computes from identical values.
func (d *Ctx) bcastBand(buf []complex128, root, tag int, single bool) {
	if single {
		b32 := mpi.SingleOf(buf)
		mpi.Bcast(d.C, root, tag, b32)
		copy(buf, mpi.DoubleOf(b32))
		return
	}
	mpi.Bcast(d.C, root, tag, buf)
}

// exchangeBcastSequential delivers reference bands in global order, one
// blocking broadcast each into the workspace wire buffer.
func (d *Ctx) exchangeBcastSequential(phi []complex128, single bool, ws *ExchangeWorkspace) {
	ng := d.G.NG
	myLo, _ := d.BandRange(d.C.Rank())
	buf := ws.band[0]
	for i := 0; i < d.NB; i++ {
		owner := d.bandOwner(i)
		if owner == d.C.Rank() {
			copy(buf, phi[(i-myLo)*ng:(i-myLo+1)*ng])
		}
		d.bcastBand(buf, owner, tagExchBcast+i, single)
		ws.process(buf, i)
	}
}

// exchangeBcastOverlapped pipelines the broadcasts: the fetch of band i+1
// runs on its own goroutine (distinct tag, so the Comm handle is safe)
// while band i is folded into the accumulators. The two wire buffers
// ping-pong so the in-flight fetch never touches the band being processed.
// On one rank there is no broadcast to hide and the pipeline degenerates to
// the sequential loop (keeping the single-rank path goroutine-free).
func (d *Ctx) exchangeBcastOverlapped(phi []complex128, single bool, ws *ExchangeWorkspace) {
	if d.C.Size() == 1 {
		d.exchangeBcastSequential(phi, single, ws)
		return
	}
	ng := d.G.NG
	myLo, _ := d.BandRange(d.C.Rank())
	fetch := func(i int) {
		go func() {
			defer ws.forwardFault()
			buf := ws.band[i%2]
			owner := d.bandOwner(i)
			if owner == d.C.Rank() {
				copy(buf, phi[(i-myLo)*ng:(i-myLo+1)*ng])
			}
			d.bcastBand(buf, owner, tagExchBcast+i, single)
			ws.ch <- buf
		}()
	}
	fetch(0)
	for i := 0; i < d.NB; i++ {
		band, ok := <-ws.ch
		if !ok {
			ws.refault()
		}
		if i+1 < d.NB {
			fetch(i + 1)
		}
		ws.process(band, i)
	}
}
