// Distributed adaptively compressed exchange (ACE): the rank-nb projector
// compression of the Fock operator (Lin, JCTC 2016; combined with the PT
// gauge in Jia & Lin, arXiv:1809.09609 - refs [24] and [22] of the paper)
// constructed and applied collectively on the band-index x G-space
// decomposition:
//
//	V_ACE = -Xi Xi^H,  Xi = W conj(L)^{-1},  -Phi^H W = L L^H,  W = V_X Phi.
//
// Construction (collective): W is computed band-block by band-block with
// the configured exchange communication strategy - one exact application,
// nb broadcasts, and the reference being Phi itself, one fused Poisson
// solve per unordered pair, nb(nb+1)/2 over all ranks (nb x nbl per rank
// on a single-precision wire, which forces the one-sided fold) - Phi and W
// are transposed into the G layout with one MPI_Alltoallv each, the
// nb x nb overlap -Phi^H W is accumulated slab-wise and MPI_Allreduced in
// deterministic rank order, the Cholesky factorization is replicated on
// every rank (bit-identical inputs, so the success/failure decision is
// symmetric), and the triangular solve for Xi runs slab-locally - each G
// column of the band recurrence is independent, so the G layout needs no
// further communication.
//
// Application (collective): one transpose of the local band block into the
// G layout, the slab-partial projections Xi^H Psi allreduced as a single
// nb x nb matrix - the one Allreduce of the paper's nb-dot-products
// accounting - the rank-nb update -Xi (Xi^H Psi) evaluated per slab, and
// one transpose back. Per application that is at most two MPI_Alltoallv
// plus one nb x nb MPI_Allreduce, versus nb broadcasts of NG coefficients
// and the pair solves of the exact operator; the solver's residual already
// holds the iterate transposed into the G layout and hands it to
// ApplyFromG, so the inbound transpose is not paid twice.
package dist

import (
	"fmt"

	"ptdft/internal/linalg"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
)

// ACE is one rank's view of the distributed compressed exchange operator:
// all NB projector bands over this rank's G slab, plus the scratch the
// collective construction and application reuse. Build it with NewACE once
// and Rebuild it whenever the reference orbitals change; the steady state
// performs no band-block allocations.
type ACE struct {
	d  *Ctx
	nb int

	xiG  []complex128 // NB x local slab: the Xi projector in the G layout
	phiG []complex128 // NB x local slab: reference transpose scratch
	psiG []complex128 // NB x local slab: application transpose scratch
	vxG  []complex128 // NB x local slab: rank-nb update in the G layout
	vx   []complex128 // nbl x NG: application result in the band layout
	m    []complex128 // nb x nb: overlap / projection matrix
	tw   *TransposeWorkspace

	built bool
}

// NewACE allocates the distributed ACE scratch for this rank. The operator
// is unusable until the first Rebuild.
func (d *Ctx) NewACE() *ACE {
	w := d.NumLocalG()
	nb := d.NB
	return &ACE{
		d:    d,
		nb:   nb,
		xiG:  make([]complex128, nb*w),
		phiG: make([]complex128, nb*w),
		psiG: make([]complex128, nb*w),
		vxG:  make([]complex128, nb*w),
		vx:   make([]complex128, d.NumLocalBands()*d.G.NG),
		m:    make([]complex128, nb*nb),
		tw:   d.NewTransposeWorkspace(),
	}
}

// Rebuild reconstructs Xi from the reference band block phi (this rank's
// local bands, sphere coefficients). phiG may carry the caller's already
// transposed copy of phi in the G layout (the solver's residual holds one
// anyway), saving one Alltoallv; pass nil to transpose internally.
// kernel/alpha/opt select the screened kernel and the communication
// strategy of the W = V_X Phi stage; ex is the caller's exchange workspace
// (the solver shares one across the exact and ACE paths). Collective: all
// ranks must call it together; the Cholesky failure of a degenerate
// reference set is symmetric across ranks and is returned loudly rather
// than silently falling back to the exact operator.
func (a *ACE) Rebuild(phi, phiG []complex128, kernel []float64, alpha float64, opt ExchangeOptions, ex *ExchangeWorkspace) error {
	return a.rebuild(phi, phiG, nil, kernel, alpha, opt, ex)
}

// rebuild is Rebuild for a caller that may already hold vx = V_X[Phi] Phi on
// its local block (the solver, after an energy evaluation of the same
// state); a nil vx is computed here.
func (a *ACE) rebuild(phi, phiG, vx []complex128, kernel []float64, alpha float64, opt ExchangeOptions, ex *ExchangeWorkspace) error {
	d := a.d
	ref := d.C.Trace().Begin("ace_build", "solver")
	defer d.C.Trace().End(ref)
	nb := a.nb
	w := d.NumLocalG()

	// W = V_X Phi on the local band block, delivered by the configured
	// exchange strategy; ex.vx is only borrowed, so transpose immediately.
	if vx == nil {
		vx = d.FockExchangeWS(phi, phi, kernel, alpha, opt, ex)
	}
	d.BandToGWS(a.xiG, vx, false, a.tw)
	if phiG == nil {
		d.BandToGWS(a.phiG, phi, false, a.tw)
		phiG = a.phiG
	}

	// M = -Phi^H W, accumulated slab-wise and allreduced in deterministic
	// rank order so every rank factors bit-identical data.
	linalg.Overlap(a.m, phiG, a.xiG, nb, nb, w)
	mpi.AllreduceSum(d.C, tagACE, a.m)
	for i := range a.m {
		a.m[i] = -a.m[i]
	}
	if err := linalg.CholeskyLower(a.m, nb); err != nil {
		a.built = false
		return fmt.Errorf("dist: ACE overlap not negative definite (degenerate reference set): %w", err)
	}

	// Xi = conj(L)^{-1} W, slab-local: the band recurrence couples bands,
	// not G columns, and the G layout holds every band over the slab.
	linalg.SolveLowerBands(a.m, a.xiG, nb, w)
	a.built = true
	return nil
}

// Apply accumulates V_ACE psi = -Xi (Xi^H psi) into dst for this rank's
// band block (band-major sphere coefficients). Collective: two layout
// transposes and one allreduce of the nb x nb projection matrix.
func (a *ACE) Apply(dst, psi []complex128) {
	d := a.d
	d.BandToGWS(a.psiG, psi, false, a.tw)
	a.ApplyFromG(dst, a.psiG)
}

// ApplyFromG is Apply with the band block already transposed into the G
// layout (all NB bands x local slab), saving one Alltoallv when the caller
// - the solver's residual - holds that transpose anyway. Collective.
func (a *ACE) ApplyFromG(dst, psiG []complex128) {
	if !a.built {
		panic("dist: ACE applied before Rebuild")
	}
	d := a.d
	ref := d.C.Trace().Begin("ace_apply", "solver")
	defer d.C.Trace().End(ref)
	nb := a.nb
	w := d.NumLocalG()

	// Projections P[k][j] = <Xi_k|psi_j>: slab partials, one Allreduce.
	linalg.Overlap(a.m, a.xiG, psiG, nb, nb, w)
	mpi.AllreduceSum(d.C, tagACEProj, a.m)
	for i := range a.m {
		a.m[i] = -a.m[i]
	}

	// vxG_j = sum_k (-P[k][j]) Xi_k over the slab, then back to bands.
	linalg.ApplyMatrix(a.vxG, a.xiG, a.m, nb, nb, w)
	d.GToBandWS(a.vx, a.vxG, false, a.tw)
	if parallel.MaxWorkers() <= 1 {
		for i := range dst {
			dst[i] += a.vx[i]
		}
		return
	}
	parallel.ForBlock(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += a.vx[i]
		}
	})
}
