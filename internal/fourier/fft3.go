package fourier

import (
	"fmt"
	"sync"

	"ptdft/internal/lanes"
)

// Plan3 is a three-dimensional transform plan over a row-major grid with
// index (ix*Ny + iy)*Nz + iz. Every transform runs on the calling goroutine
// (callers parallelize over bands, one workspace per worker) except the
// pair-lane contraction, which splits its passes over the workspaces it is
// given. A Plan3 is immutable and safe for concurrent use: per-call scratch
// lives in Workspace3 objects held by callers or drawn from the plan's
// pool, so steady-state transforms allocate nothing.
type Plan3 struct {
	nx, ny, nz int
	px, py, pz *Plan
	pool       sync.Pool // *Workspace3
	pairs      *Plan3    // ContractPairsWS's buffer as a grid of Width floats per point
}

// Workspace3 is the scratch one 3D transform needs: two lane blocks sized
// for the longest axis, which every axis pass transforms in place (the 1D
// plans need nothing more). A Workspace3 must not be shared between
// concurrent transforms.
type Workspace3 struct {
	lu, lv lanes.Slab // maxdim*lanes.Width each; lv holds the Poisson x pass's inverse
	// grid is the grid slab RawSerialWS computes in, allocated by its first
	// call: the workspaces of the step path, which never make one, do not
	// carry it.
	grid lanes.Slab
}

// NewWorkspace allocates the scratch for one transform of this plan.
func (p *Plan3) NewWorkspace() *Workspace3 {
	n := p.nx
	if p.ny > n {
		n = p.ny
	}
	if p.nz > n {
		n = p.nz
	}
	return &Workspace3{lu: lanes.New(n * lanes.Width), lv: lanes.New(n * lanes.Width)}
}

// CheckoutWorkspace draws a workspace from the plan's pool, for callers
// that hold none of their own; pair it with ReturnWorkspace.
func (p *Plan3) CheckoutWorkspace() *Workspace3 { return p.pool.Get().(*Workspace3) }

// ReturnWorkspace gives a checked-out workspace back to the pool.
func (p *Plan3) ReturnWorkspace(ws *Workspace3) { p.pool.Put(ws) }

// NewPlan3 creates a 3D plan for an nx x ny x nz grid.
func NewPlan3(nx, ny, nz int) (*Plan3, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("fourier: invalid 3D dims %dx%dx%d", nx, ny, nz)
	}
	px, err := NewPlan(nx)
	if err != nil {
		return nil, err
	}
	py, err := NewPlan(ny)
	if err != nil {
		return nil, err
	}
	pz, err := NewPlan(nz)
	if err != nil {
		return nil, err
	}
	p := &Plan3{nx: nx, ny: ny, nz: nz, px: px, py: py, pz: pz}
	p.pairs = &Plan3{nx: nx, ny: ny, nz: nz * lanes.Width, px: px, py: py}
	p.pool.New = func() any { return p.NewWorkspace() }
	return p, nil
}

// Size reports the total number of grid points.
func (p *Plan3) Size() int { return p.nx * p.ny * p.nz }

func (p *Plan3) checkLen(dst, src []complex128) {
	n := p.Size()
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("fourier: 3D buffer length mismatch: plan %d, dst %d, src %d", n, len(dst), len(src)))
	}
}

// RawSerialWS runs one unnormalized transform (no 1/N on the inverse) of a
// grid in the interleaved []complex128 layout, with caller-owned scratch;
// dst and src may alias. It is the one place the two layouts meet: the grid
// is packed into the workspace's slab, transformed by RawSlabWS and
// unpacked, so []complex128 callers (potential and projector setup, the MD
// forces, the dense-grid reference chain) run the same transform as the
// step path at the cost of two copies. The first call on a workspace
// allocates its grid slab; later ones allocate nothing.
func (p *Plan3) RawSerialWS(dst, src []complex128, inverse bool, ws *Workspace3) {
	p.checkLen(dst, src)
	if ws.grid.Len() == 0 {
		ws.grid = lanes.New(p.Size())
	}
	lanes.Pack(ws.grid, src)
	p.RawSlabWS(ws.grid, ws.grid, inverse, ws)
	lanes.Unpack(dst, ws.grid)
}

// ApplySerialWS is RawSerialWS with the 1/N normalization on the inverse,
// so that an inverse undoes a forward.
func (p *Plan3) ApplySerialWS(dst, src []complex128, inverse bool, ws *Workspace3) {
	p.RawSerialWS(dst, src, inverse, ws)
	if inverse {
		scale := 1 / float64(p.Size())
		for i, v := range dst {
			dst[i] = complex(real(v)*scale, imag(v)*scale)
		}
	}
}
