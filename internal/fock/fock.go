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
// All per-band scratch (real-space boxes, pair buffers, FFT line scratch)
// lives in Operator-owned Workspace objects bound one-per-worker through
// parallel.ForWorker, the Poisson solves run through the fused
// fourier.Plan3 round trips, and when the operator acts on its own
// reference set the conjugate-pair symmetry
//
//	Poisson[phi_i* phi_j] = conj(Poisson[phi_j* phi_i])
//
// halves the FFT count to nb(nb+1)/2 solves (ApplyToReference) - the
// dominant case in the PT-CN SCF refresh, Energy, and ACE construction.
//
// The package also implements the adaptively compressed exchange (ACE)
// representation (refs [22], [24] of the paper) as an optional
// lower-cost approximation used for ablation studies: V_ACE = -W W^H with
// W = V_X Phi (Phi^H V_X Phi)^{-1/2} via Cholesky.
package fock

import (
	"fmt"
	"math"

	"ptdft/internal/fourier"
	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
	"ptdft/internal/trace"
	"ptdft/internal/xc"
)

// Operator applies the screened Fock exchange for a fixed reference
// orbital set. Safe for concurrent Apply/ApplyReal/Energy calls once
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

	// pairs enumerates the upper triangle (i <= j) once; rounds is the
	// same set arranged as a round-robin tournament schedule - within a
	// round no two pairs share a band, so the symmetric accumulation is
	// both race-free and deterministic.
	pairs  [][2]int
	rounds [][][2]int

	// Workspace recycling: ws feeds both single-shot callers (ApplyReal)
	// and the band-parallel entry points; accPool recycles the symmetric
	// path's nb x NTot SoA accumulator, so concurrent calls stay correct
	// (a second caller simply builds a transient slab).
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
// real-space SoA boxes, the pair (Poisson) slab, a sphere-coefficient
// vector, and the FFT line scratch. Obtain one from NewWorkspace; a
// Workspace must not be used by two goroutines at once.
type Workspace struct {
	src  lanes.Slab   // NTot: band in real space (SoA)
	acc  lanes.Slab   // NTot: exchange accumulator in real space (SoA)
	pair lanes.Slab   // NTot: Poisson solve buffer (SoA)
	sph  []complex128 // NG: sphere-coefficient scratch
	fft  *fourier.Workspace3
}

// NewWorkspace allocates the scratch one worker needs for Apply-family
// calls on this operator.
func (op *Operator) NewWorkspace() *Workspace {
	return &Workspace{
		src:  lanes.New(op.g.NTot),
		acc:  lanes.New(op.g.NTot),
		pair: lanes.New(op.g.NTot),
		sph:  make([]complex128, op.g.NG),
		fft:  op.g.Plan.NewWorkspace(),
	}
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

func (op *Operator) releaseAcc(acc *lanes.Slab) { op.accPool.Put(acc) }

// NewOperator builds the Fock operator for hybrid parameters hyb and
// reference orbitals phi given as sphere coefficients (band-major, nb x NG).
func NewOperator(g *grid.Grid, hyb xc.HybridParams, phi []complex128, nb int) *Operator {
	op := &Operator{g: g, alpha: hyb.Alpha, nb: nb}
	op.ws.New = op.NewWorkspace
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
	if nb != op.nb || op.pairs == nil {
		op.pairs, op.rounds = pairSchedule(nb)
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
		op.g.ToRealSlabWS(op.phiReal.Row(i, ntot), phi[i*op.g.NG:(i+1)*op.g.NG], wss[w].fft)
	})
	op.ws.Release(wss)
}

// pairSchedule enumerates the upper-triangle band pairs (i <= j) and
// arranges the off-diagonal ones as a round-robin tournament (circle
// method): within each round every band appears in at most one pair, so
// the two-sided accumulation of ApplyToReference runs in parallel without
// write conflicts and with a deterministic accumulation order. The
// diagonal pairs form one final, trivially disjoint round.
func pairSchedule(nb int) (pairs [][2]int, rounds [][][2]int) {
	m := nb
	if m%2 == 1 {
		m++
	}
	for t := 0; t < m-1; t++ {
		var round [][2]int
		add := func(a, b int) {
			if a >= nb || b >= nb {
				return // the bye of an odd band count
			}
			if a > b {
				a, b = b, a
			}
			round = append(round, [2]int{a, b})
		}
		if m > 1 {
			add(m-1, t%(m-1))
		}
		for k := 1; k < m/2; k++ {
			add((t+k)%(m-1), (t-k+m-1)%(m-1))
		}
		if len(round) > 0 {
			rounds = append(rounds, round)
			pairs = append(pairs, round...)
		}
	}
	var diag [][2]int
	for i := 0; i < nb; i++ {
		diag = append(diag, [2]int{i, i})
	}
	rounds = append(rounds, diag)
	pairs = append(pairs, diag...)
	return pairs, rounds
}

// IsReference reports whether src (band-major sphere coefficients) equals
// the operator's own reference orbital set - the case where the symmetric
// ApplyToReference path applies. The scan exits at the first mismatch, so
// the common negative costs a handful of comparisons.
func (op *Operator) IsReference(src []complex128, nb int) bool {
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

// ApplyReal accumulates (V_X psi)(r) into dst for a wavefunction given in
// real space on the wavefunction box, both in the split re/im layout
// (length NTot). This is the per-band inner loop of Alg. 2 (lines 6-10): nb
// Poisson solves, each a fused forward FFT, kernel multiply, and inverse
// FFT.
func (op *Operator) ApplyReal(dst, src lanes.Slab) {
	if dst.Len() != op.g.NTot || src.Len() != op.g.NTot {
		panic("fock: ApplyReal buffer size mismatch")
	}
	ws := op.ws.Get()
	op.applyRealWS(dst, src, ws)
	op.ws.Put(ws)
}

// applyRealWS folds every reference band into the SoA accumulator dst
// using the caller's workspace (pair slab + FFT scratch).
func (op *Operator) applyRealWS(dst, src lanes.Slab, ws *Workspace) {
	ntot := op.g.NTot
	for i := 0; i < op.nb; i++ {
		op.g.Plan.ContractSlabWS(dst, op.phiReal.Row(i, ntot), src, ws.pair, op.kernel, -op.alpha, ws.fft)
	}
}

// ContractReferenceWS accumulates the exchange contribution of one
// reference orbital into dstReal for a wavefunction, all in real space on
// the wavefunction box: dstReal += -alpha * phi * Poisson[phi^* src]. pair
// is a caller-provided NTot scratch slab and fws caller-owned FFT scratch,
// for loops that bind one workspace per worker. This is the (i, j) inner
// step of Alg. 2 that the distributed exchange of internal/dist folds bands
// through: all four buffers are lane-blocked slabs, so its schedules chain
// contractions without re-interleaving between stages.
func ContractReferenceWS(g *grid.Grid, kernel []float64, alpha float64, phiReal, srcReal, dstReal, pair lanes.Slab, fws *fourier.Workspace3) {
	g.Plan.ContractSlabWS(dstReal, phiReal, srcReal, pair, kernel, -alpha, fws)
}

// ContractPairReferenceWS is the two-sided symmetric SoA contraction: one
// Poisson solve accumulating both accJ += -alpha phi_i v and (for i != j)
// accI += -alpha phi_j conj(v), v = Poisson[phi_i^* phi_j]. The distributed
// pair-symmetric fold (dist.ExchangeWorkspace) runs on it.
func ContractPairReferenceWS(g *grid.Grid, kernel []float64, alpha float64, phiI, phiJ, accI, accJ, pair lanes.Slab, diag bool, fws *fourier.Workspace3) {
	g.Plan.ContractPairSlabWS(accI, accJ, phiI, phiJ, pair, kernel, -alpha, diag, fws)
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
	if op.IsReference(src, nbands) {
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
	op.g.ToRealSlabWS(ws.src, src[j*ng:(j+1)*ng], ws.fft)
	ws.acc.Zero()
	op.applyRealWS(ws.acc, ws.src, ws)
	op.g.FromRealSlabWS(ws.sph, ws.acc, ws.fft)
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
	acc := op.acquireAcc()
	nw := parallel.NumWorkers(nb)
	wss := op.ws.Acquire(nw)
	// Rounds are barriers: within one round no two pairs share a band, so
	// both sides of each pair accumulate without locks, and the fixed
	// round order keeps the floating-point accumulation deterministic.
	if nw <= 1 {
		// Serial fast path: no closures, no goroutines (zero-alloc).
		for _, round := range op.rounds {
			for t := range round {
				op.contractPair(acc, round[t][0], round[t][1], wss[0])
			}
		}
		for j := 0; j < nb; j++ {
			op.gatherBand(dst, acc, j, wss[0])
		}
	} else {
		for _, round := range op.rounds {
			r := round
			parallel.ForWorker(len(r), func(w, t int) {
				op.contractPair(acc, r[t][0], r[t][1], wss[w])
			})
		}
		parallel.ForWorker(nb, func(w, j int) {
			op.gatherBand(dst, acc, j, wss[w])
		})
	}
	op.ws.Release(wss)
	op.releaseAcc(acc)
}

// contractPair performs the single Poisson solve of the unordered pair
// (i, j) and accumulates both sides of the symmetry into the SoA
// accumulator: acc_j += -alpha phi_i v and (for i != j)
// acc_i += -alpha phi_j conj(v), with v = Poisson[phi_i^* phi_j]. Both
// accumulations ride inside the inverse z pass of the fused solve.
func (op *Operator) contractPair(acc *lanes.Slab, i, j int, ws *Workspace) {
	ntot := op.g.NTot
	phiI := op.phiReal.Row(i, ntot)
	phiJ := op.phiReal.Row(j, ntot)
	op.g.Plan.ContractPairSlabWS(acc.Row(i, ntot), acc.Row(j, ntot), phiI, phiJ, ws.pair, op.kernel, -op.alpha, i == j, ws.fft)
}

// gatherBand projects real-space accumulator band j back onto the sphere
// and adds it into dst (the accumulator is consumed).
func (op *Operator) gatherBand(dst []complex128, acc *lanes.Slab, j int, ws *Workspace) {
	ng, ntot := op.g.NG, op.g.NTot
	op.g.FromRealSlabWS(ws.sph, acc.Row(j, ntot), ws.fft)
	d := dst[j*ng : (j+1)*ng]
	for s := range d {
		d[s] += ws.sph[s]
	}
}

// Energy returns the exchange energy E_X = sum_j Re<psi_j|V_X psi_j> for a
// band set (the spin factor 2 and the 1/2 double counting cancel for a
// closed shell). The evaluation streams band by band through worker
// workspaces - no nbands x NG buffer is formed - and when psi is the
// operator's own reference set it uses the pair symmetry to halve the
// Poisson solves.
func (op *Operator) Energy(psi []complex128, nbands int) float64 {
	ng := op.g.NG
	if len(psi) != nbands*ng {
		panic("fock: Energy buffer size mismatch")
	}
	if op.IsReference(psi, nbands) {
		return op.energyReference()
	}
	// Generic path: per band, <psi_j|V_X psi_j> evaluated as the
	// real-space inner product dV * sum_r conj(psi_j(r)) (V_X psi_j)(r),
	// which equals the sphere-coefficient dot product by Parseval.
	eband := make([]float64, nbands)
	nw := parallel.NumWorkers(nbands)
	wss := op.ws.Acquire(nw)
	parallel.ForWorker(nbands, func(w, j int) {
		ws := wss[w]
		op.g.ToRealSlabWS(ws.src, psi[j*ng:(j+1)*ng], ws.fft)
		ws.acc.Zero()
		op.applyRealWS(ws.acc, ws.src, ws)
		eband[j] = lanes.DotRe(ws.src, ws.acc)
	})
	op.ws.Release(wss)
	var e float64
	for _, v := range eband {
		e += v
	}
	return e * op.g.DVWave()
}

// energyReference evaluates E_X on the reference set with one Poisson
// solve per unordered pair: E_X = -alpha dV sum_{i<=j} w_ij Re sum_r
// conj(rho_ij(r)) Poisson[rho_ij](r) with rho_ij = phi_i^* phi_j and
// w_ij = 2 - delta_ij (the (j,i) term is the complex conjugate).
func (op *Operator) energyReference() float64 {
	ntot := op.g.NTot
	epair := make([]float64, len(op.pairs))
	nw := parallel.NumWorkers(len(op.pairs))
	wss := op.ws.Acquire(nw)
	parallel.ForWorker(len(op.pairs), func(w, t int) {
		ws := wss[w]
		i, j := op.pairs[t][0], op.pairs[t][1]
		phiI := op.phiReal.Row(i, ntot)
		phiJ := op.phiReal.Row(j, ntot)
		pair, rho := ws.pair, ws.src
		lanes.PairConj(pair, phiI, phiJ)
		copy(rho.Re, pair.Re)
		copy(rho.Im, pair.Im)
		op.g.Plan.PoissonSlabWS(pair, op.kernel, ws.fft)
		s := lanes.DotRe(rho, pair)
		if i != j {
			s *= 2
		}
		epair[t] = s
	})
	op.ws.Release(wss)
	var e float64
	for _, v := range epair {
		e += v
	}
	return -op.alpha * op.g.DVWave() * e
}
