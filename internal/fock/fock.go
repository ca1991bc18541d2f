// Package fock implements the screened Fock exchange operator of Eq. 3,
// the component that consumes ~95% of a hybrid-functional calculation:
//
//	(V_X[P] psi_j)(r) = -alpha * sum_i phi_i(r) * Int K(r-r') phi_i*(r') psi_j(r') dr'
//
// Each (i,j) pair is a Poisson-like solve done with a pair of FFTs on the
// wavefunction grid (as in the paper, which evaluates the Fock operator on
// the wavefunction grid rather than the dense grid). The operator is
// "compiled" against a reference orbital set phi (the density matrix P of
// Eq. 2); in the PT-CN SCF loop it is refreshed every iteration.
//
// Performance contract: the hot path is allocation-free in steady state.
// All per-band scratch (real-space boxes, pair streams, FFT line scratch)
// lives in Operator-owned Workspace objects bound one-per-worker through
// parallel.ForWorker. Every Poisson solve runs eight pairs wide: a
// PairStream hands an application's pairs, in fold order, to the fused
// pair-lane contraction fourier.Plan3.ContractPairsWS. When the operator
// acts on its own reference set the conjugate-pair symmetry
//
//	Poisson[phi_i* phi_j] = conj(Poisson[phi_j* phi_i])
//
// halves the FFT count to nb(nb+1)/2 solves - the dominant case in the
// PT-CN SCF refresh, Energy, and ACE construction. PairStream.FoldPairs is
// that symmetric fold, written once: ApplyToReference and Energy run it
// over partners j >= i, and the distributed exchange of internal/dist runs
// it over each rank's share of the pairs, so the serial operator is the
// one-rank distributed one bit for bit. Apply on any other band set puts
// the reference bands in the lanes against one uniform target band.
//
// The package also implements the adaptively compressed exchange (ACE) of
// refs [22], [24] of the paper, V_ACE = -W W^H with W = V_X Phi (Phi^H V_X
// Phi)^{-1/2} via Cholesky: every hybrid ground state's SCF and every ace +
// mts propagation apply it; the exact propagation applies V_X itself.
package fock

import (
	"fmt"
	"math"

	"ptdft/internal/fourier"
	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
	"ptdft/internal/trace"
	"ptdft/internal/xc"
)

// Operator applies the screened Fock exchange for a fixed reference
// orbital set. Safe for concurrent Apply/Energy calls once
// built: scratch is checked out of internal pools, never shared.
type Operator struct {
	g      *grid.Grid
	alpha  float64
	kernel []float64 // K(G) on the wavefunction box, includes screening
	// phiReal holds the reference orbitals in real space on the
	// wavefunction box in the lane-blocked SoA layout (internal/lanes),
	// one band per NTot block - every contraction reads it without
	// re-interleaving.
	phiReal lanes.Slab
	// phi keeps a copy of the reference sphere coefficients so entry
	// points can recognize "the operator applied to its own reference
	// set" and take the symmetry-halved path.
	phi []complex128
	nb  int

	// Workspace recycling: ws feeds the band-parallel entry points;
	// accPool recycles the symmetric path's nb x NTot SoA accumulator, so
	// concurrent calls stay correct (a second caller simply builds a
	// transient slab).
	ws      parallel.ScratchPool[*Workspace]
	accPool parallel.ScratchPool[*lanes.Slab]

	// tr records apply spans on the owning rank's timeline; nil (the
	// default) disables recording at the cost of one pointer check.
	tr *trace.Track
}

// SetTrace attaches a span track the exchange applications record on
// (nil disables). The serial drivers set it through the Hamiltonian.
func (op *Operator) SetTrace(t *trace.Track) { op.tr = t }

// Workspace is the per-worker scratch of one exchange application: two
// real-space SoA boxes, the worker's pair stream, a sphere-coefficient
// vector, and the FFT line scratch. Obtain one from NewWorkspace; a
// Workspace must not be used by two goroutines at once.
type Workspace struct {
	Src   lanes.Slab          // NTot: a band in real space (SoA)
	Acc   lanes.Slab          // NTot: an exchange accumulator in real space (SoA)
	FFT   *fourier.Workspace3 // FFT line scratch
	Pairs PairStream          // the pair lanes this worker's solves run in
	sph   []complex128        // NG: sphere-coefficient scratch
}

// NewWorkspace allocates the scratch one worker needs for an exchange
// application on grid g (the pair block waits for the stream's first Start).
func NewWorkspace(g *grid.Grid) *Workspace {
	return &Workspace{
		Src: lanes.New(g.NTot),
		Acc: lanes.New(g.NTot),
		FFT: g.Plan.NewWorkspace(),
		sph: make([]complex128, g.NG),
	}
}

// PairStream runs an application's Poisson solves lanes.Width pairs per
// fourier.Plan3.ContractPairsWS call, packed in queue order across
// reference-band boundaries, so only a Flush runs a short call and at most
// Width-1 queued pairs are ever unsolved. Lanes add in lane order: every
// accumulator element takes its adds in queue order.
type PairStream struct {
	plan   *fourier.Plan3
	kernel []float64
	scale  float64
	ffts   []*fourier.Workspace3
	buf    lanes.Slab // Width*NTot: the pairs, band-interleaved
	pl     fourier.PairLanes
}

// Start binds the empty stream to one application: the kernel, the
// exchange fraction and the workers each call splits its passes over.
func (s *PairStream) Start(g *grid.Grid, kernel []float64, alpha float64, wss []*Workspace) {
	s.plan, s.kernel, s.scale = g.Plan, kernel, -alpha
	s.ffts = s.ffts[:0]
	for _, ws := range wss {
		s.ffts = append(s.ffts, ws.FFT)
	}
	if s.buf.Len() != lanes.Width*g.NTot {
		s.buf = lanes.New(lanes.Width * g.NTot)
	}
}

// Add queues the pair (a, b) into accumulators accA, accB - lane
// semantics of fourier.PairLanes, scale -alpha; none may change until the
// pair is solved.
func (s *PairStream) Add(a, b, accA, accB lanes.Slab) {
	l := s.pl.N
	s.pl.A[l], s.pl.B[l], s.pl.AccA[l], s.pl.AccB[l] = a, b, accA, accB
	s.pl.N++
	if s.pl.N == lanes.Width {
		s.Flush()
	}
}

// Flush solves the queued pairs.
func (s *PairStream) Flush() {
	if s.pl.N == 0 {
		return
	}
	s.plan.ContractPairsWS(&s.pl, s.buf, s.kernel, s.scale, s.ffts)
	s.pl.N = 0
}

// acquireAcc hands out the nb x NTot real-space SoA accumulator of the
// symmetric reference application, zeroed. Slabs recycle through accPool -
// a deliberate memory-for-speed trade (one slab is the same size as the
// phiReal block the operator already holds, and PT-CN calls the symmetric
// path every SCF iteration).
func (op *Operator) acquireAcc() *lanes.Slab {
	n := op.nb * op.g.NTot
	acc := op.accPool.Get()
	if acc.Len() != n {
		acc = lanes.NewPtr(n)
	}
	acc.Zero()
	return acc
}

// NewOperator builds the Fock operator for hybrid parameters hyb and
// reference orbitals phi given as sphere coefficients (band-major, nb x NG).
func NewOperator(g *grid.Grid, hyb xc.HybridParams, phi []complex128, nb int) *Operator {
	op := &Operator{g: g, alpha: hyb.Alpha, nb: nb}
	op.ws.New = func() *Workspace { return NewWorkspace(g) }
	op.accPool.New = func() *lanes.Slab { return lanes.NewPtr(op.nb * op.g.NTot) }
	op.kernel = BuildKernel(g, hyb)
	op.SetOrbitals(phi, nb)
	return op
}

// BuildKernel tabulates the screened Coulomb kernel K(G) on every
// wavefunction-box point.
func BuildKernel(g *grid.Grid, hyb xc.HybridParams) []float64 {
	kernel := make([]float64, g.NTot)
	// Wavefunction-box G vectors: recompute from Miller indices per point.
	n := g.N
	b := [3]float64{
		2 * math.Pi / g.Cell.L[0],
		2 * math.Pi / g.Cell.L[1],
		2 * math.Pi / g.Cell.L[2],
	}
	idx := 0
	for ix := 0; ix < n[0]; ix++ {
		mx := ix
		if mx > n[0]/2 {
			mx -= n[0]
		}
		gx := float64(mx) * b[0]
		for iy := 0; iy < n[1]; iy++ {
			my := iy
			if my > n[1]/2 {
				my -= n[1]
			}
			gy := float64(my) * b[1]
			for iz := 0; iz < n[2]; iz++ {
				mz := iz
				if mz > n[2]/2 {
					mz -= n[2]
				}
				gz := float64(mz) * b[2]
				kernel[idx] = hyb.ScreenedKernel(gx*gx + gy*gy + gz*gz)
				idx++
			}
		}
	}
	return kernel
}

// SetOrbitals refreshes the reference orbital set (the P in V_X[P]).
func (op *Operator) SetOrbitals(phi []complex128, nb int) {
	if len(phi) != nb*op.g.NG {
		panic(fmt.Sprintf("fock: SetOrbitals size mismatch: %d bands x NG %d != %d", nb, op.g.NG, len(phi)))
	}
	op.nb = nb
	ntot := op.g.NTot
	if op.phiReal.Len() != nb*ntot {
		op.phiReal = lanes.New(nb * ntot)
	}
	if len(op.phi) != nb*op.g.NG {
		op.phi = make([]complex128, nb*op.g.NG)
	}
	copy(op.phi, phi)
	nw := parallel.NumWorkers(nb)
	wss := op.ws.Acquire(nw)
	parallel.ForWorker(nb, func(w, i int) {
		op.g.ToRealSlabWS(op.phiReal.Row(i, ntot), phi[i*op.g.NG:(i+1)*op.g.NG], wss[w].FFT)
	})
	op.ws.Release(wss)
}

// isReference reports whether src (band-major sphere coefficients) equals
// the operator's own reference orbital set - the case where the symmetric
// ApplyToReference path applies. The scan exits at the first mismatch, so
// the common negative costs a handful of comparisons.
func (op *Operator) isReference(src []complex128, nb int) bool {
	if nb != op.nb || len(src) != len(op.phi) {
		return false
	}
	if &src[0] == &op.phi[0] {
		return true
	}
	for i, v := range src {
		if v != op.phi[i] {
			return false
		}
	}
	return true
}

// applyRealWS accumulates (V_X psi)(r) into the SoA accumulator dst for a
// band src in real space, through the caller's workspace alone (its pair
// stream and FFT scratch). This is the per-band inner loop of Alg. 2
// (lines 6-10): nb Poisson solves, each a fused forward FFT, kernel
// multiply, and inverse FFT, the reference bands in the lanes against the
// uniform psi.
func (op *Operator) applyRealWS(dst, src lanes.Slab, ws *Workspace) {
	s := &ws.Pairs
	s.Start(op.g, op.kernel, op.alpha, []*Workspace{ws})
	for i := 0; i < op.nb; i++ {
		s.Add(op.phiReal.Row(i, op.g.NTot), src, lanes.Slab{}, dst)
	}
	s.Flush()
}

// FoldPairs queues the pair-symmetric fold of one reference band phi_i
// (real space, SoA) over the partner rows j = j0, j0+dj, ... (n of them) of
// the band block psi: each pair's solve v = Poisson[phi_i^* psi_j]
// accumulates acc_j += -alpha phi_i v and accI += -alpha psi_j conj(v), the
// second side skipped for the diagonal pair when diag says the first
// partner j0 is phi_i itself, and for every pair when accI is empty (the
// one-sided fold). Every self-referenced exchange application runs it:
// ApplyToReference and Energy over partners j >= i, band after band,
// internal/dist over each rank's share of the pairs.
func (s *PairStream) FoldPairs(phiI, accI, psi, acc lanes.Slab, j0, dj, n int, diag bool) {
	ntot := s.plan.Size()
	for k := 0; k < n; k++ {
		j, side := j0+k*dj, accI
		if diag && k == 0 {
			side = lanes.Slab{}
		}
		s.Add(phiI, psi.Row(j, ntot), side, acc.Row(j, ntot))
	}
}

// Apply computes V_X applied to nbands sphere-coefficient bands
// (band-major) and accumulates the result into dst (same layout). The band
// loop is parallelized with one workspace per worker, mirroring the
// batched GPU execution of the paper. When src is the operator's own
// reference set the call routes through ApplyToReference and performs only
// nb(nb+1)/2 Poisson solves.
func (op *Operator) Apply(dst, src []complex128, nbands int) {
	ng := op.g.NG
	if len(dst) != nbands*ng || len(src) != nbands*ng {
		panic("fock: Apply buffer size mismatch")
	}
	if op.isReference(src, nbands) {
		op.ApplyToReference(dst)
		return
	}
	ref := op.tr.Begin("exchange", "fock")
	defer op.tr.End(ref)
	nw := parallel.NumWorkers(nbands)
	wss := op.ws.Acquire(nw)
	if nw <= 1 {
		// Serial fast path: no closure, no goroutines - this is the
		// zero-allocation steady state the alloc test pins.
		for j := 0; j < nbands; j++ {
			op.applyBand(dst, src, j, wss[0])
		}
	} else {
		parallel.ForWorker(nbands, func(w, j int) {
			op.applyBand(dst, src, j, wss[w])
		})
	}
	op.ws.Release(wss)
}

// applyBand computes band j of the generic application: real space, nb
// fused contractions, back to the sphere, accumulate into dst.
func (op *Operator) applyBand(dst, src []complex128, j int, ws *Workspace) {
	ng := op.g.NG
	op.g.ToRealSlabWS(ws.Src, src[j*ng:(j+1)*ng], ws.FFT)
	ws.Acc.Zero()
	op.applyRealWS(ws.Acc, ws.Src, ws)
	op.g.FromRealSlabWS(ws.sph, ws.Acc, ws.FFT)
	d := dst[j*ng : (j+1)*ng]
	for s := range d {
		d[s] += ws.sph[s]
	}
}

// ApplyToReference accumulates V_X applied to the operator's own reference
// orbitals into dst (band-major sphere coefficients, nb x NG). It exploits
// the conjugate-pair symmetry Poisson[phi_i* phi_j] = conj(Poisson[phi_j*
// phi_i]) - the kernel is real and inversion-symmetric, so the Poisson
// round trip is convolution with a real function - to run one solve per
// unordered pair: nb(nb+1)/2 instead of nb^2. This is the dominant
// exchange call of the PT-CN refresh, Energy and ACE construction.
func (op *Operator) ApplyToReference(dst []complex128) {
	nb, ng := op.nb, op.g.NG
	if len(dst) != nb*ng {
		panic("fock: ApplyToReference buffer size mismatch")
	}
	ref := op.tr.Begin("exchange", "fock")
	defer op.tr.End(ref)
	acc, wss := op.foldReference()
	if len(wss) <= 1 {
		// Serial fast path: no closures, no goroutines (zero-alloc).
		for j := 0; j < nb; j++ {
			op.gatherBand(dst, acc, j, wss[0])
		}
	} else {
		parallel.ForWorker(nb, func(w, j int) {
			op.gatherBand(dst, acc, j, wss[w])
		})
	}
	op.ws.Release(wss)
	op.accPool.Put(acc)
}

// gatherBand projects real-space accumulator band j back onto the sphere
// and adds it into dst.
func (op *Operator) gatherBand(dst []complex128, acc *lanes.Slab, j int, ws *Workspace) {
	ng, ntot := op.g.NG, op.g.NTot
	op.g.FromRealSlabWS(ws.sph, acc.Row(j, ntot), ws.FFT)
	d := dst[j*ng : (j+1)*ng]
	for s := range d {
		d[s] += ws.sph[s]
	}
}

// foldReference runs FoldPairs for every reference band i over its
// partners j >= i, band after band as the one-rank distributed exchange
// receives them, into a pooled nb x NTot accumulator, on NumWorkers(nb)
// workers. The caller projects the rows and returns both.
func (op *Operator) foldReference() (*lanes.Slab, []*Workspace) {
	nb, ntot := op.nb, op.g.NTot
	acc := op.acquireAcc()
	wss := op.ws.Acquire(parallel.NumWorkers(nb))
	s := &wss[0].Pairs
	s.Start(op.g, op.kernel, op.alpha, wss)
	for i := 0; i < nb; i++ {
		s.FoldPairs(op.phiReal.Row(i, ntot), acc.Row(i, ntot), op.phiReal, *acc, i, 1, nb-i, true)
	}
	s.Flush()
	return acc, wss
}

// Energy returns the exchange energy E_X = sum_j Re<psi_j|V_X psi_j> for a
// band set (the spin factor 2 and the 1/2 double counting cancel for a
// closed shell). The evaluation streams band by band through worker
// workspaces - no nbands x NG buffer is formed. On the operator's own
// reference set it is the symmetric fold followed by the sphere dot
// internal/dist's energy takes, band by band; otherwise each band runs the
// one-sided contraction and the real-space dot.
func (op *Operator) Energy(psi []complex128, nbands int) float64 {
	if len(psi) != nbands*op.g.NG {
		panic("fock: Energy buffer size mismatch")
	}
	var acc *lanes.Slab
	var wss []*Workspace
	scale := 1.0 // a sphere dot carries no volume element
	if op.isReference(psi, nbands) {
		acc, wss = op.foldReference()
	} else {
		wss = op.ws.Acquire(parallel.NumWorkers(nbands))
		scale = op.g.DVWave()
	}
	// Per-band terms summed in band order; inline on one worker (zero-alloc).
	var e float64
	if len(wss) <= 1 {
		for j := 0; j < nbands; j++ {
			e += op.bandEnergy(psi, j, acc, wss[0])
		}
	} else {
		eband := make([]float64, nbands)
		parallel.ForWorker(nbands, func(w, j int) {
			eband[j] = op.bandEnergy(psi, j, acc, wss[w])
		})
		for _, v := range eband {
			e += v
		}
	}
	op.ws.Release(wss)
	if acc != nil {
		op.accPool.Put(acc)
	}
	return e * scale
}

// bandEnergy is band j's term of Energy: the sphere dot against row j of
// the folded acc or, without one, the real-space sum conj(psi_j) V_X psi_j
// (the sphere dot by Parseval once Energy applies the volume element).
func (op *Operator) bandEnergy(psi []complex128, j int, acc *lanes.Slab, ws *Workspace) float64 {
	ng, ntot := op.g.NG, op.g.NTot
	if acc != nil {
		op.g.FromRealSlabWS(ws.sph, acc.Row(j, ntot), ws.FFT)
		return real(linalg.Dot(psi[j*ng:(j+1)*ng], ws.sph))
	}
	op.g.ToRealSlabWS(ws.Src, psi[j*ng:(j+1)*ng], ws.FFT)
	ws.Acc.Zero()
	op.applyRealWS(ws.Acc, ws.Src, ws)
	return lanes.DotRe(ws.Src, ws.Acc)
}
