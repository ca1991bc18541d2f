package fourier

import (
	"fmt"
	"sync"

	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
)

// Plan3 is a three-dimensional transform plan over a row-major grid with
// index (ix*Ny + iy)*Nz + iz. Forward/Inverse parallelize over pencils using
// the shared worker pool. A Plan3 is immutable and safe for concurrent use:
// per-call scratch lives in Workspace3 objects held by callers or drawn
// from the plan's pool, so steady-state transforms allocate nothing.
type Plan3 struct {
	nx, ny, nz int
	px, py, pz *Plan
	pool       sync.Pool // *Workspace3
}

// Workspace3 is the scratch one serial 3D transform needs: two line
// buffers sized for the longest axis plus the 1D workspaces of any axis
// plan that falls back to Bluestein. A Workspace3 must not be shared
// between concurrent transforms.
type Workspace3 struct {
	u, v          []complex128
	lu, lv        lanes.Slab // lane blocks for the slab passes, maxdim*lanes.Width
	wsx, wsy, wsz *Workspace
}

// NewWorkspace allocates the scratch for one serial transform of this plan.
func (p *Plan3) NewWorkspace() *Workspace3 {
	n := p.nx
	if p.ny > n {
		n = p.ny
	}
	if p.nz > n {
		n = p.nz
	}
	return &Workspace3{
		u:   make([]complex128, n),
		v:   make([]complex128, n),
		lu:  lanes.New(n * lanes.Width),
		lv:  lanes.New(n * lanes.Width),
		wsx: p.px.NewWorkspace(),
		wsy: p.py.NewWorkspace(),
		wsz: p.pz.NewWorkspace(),
	}
}

func (p *Plan3) getWS() *Workspace3   { return p.pool.Get().(*Workspace3) }
func (p *Plan3) putWS(ws *Workspace3) { p.pool.Put(ws) }

// CheckoutWorkspace draws a workspace from the plan's pool; pair it with
// ReturnWorkspace. For one-shot use ApplySerial and friends manage this
// internally; checkout is for callers that run several transforms back to
// back and want a single Get/Put round trip.
func (p *Plan3) CheckoutWorkspace() *Workspace3 { return p.getWS() }

// ReturnWorkspace gives a checked-out workspace back to the pool.
func (p *Plan3) ReturnWorkspace(ws *Workspace3) { p.putWS(ws) }

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
	p.pool.New = func() any { return p.NewWorkspace() }
	return p, nil
}

// MustPlan3 is NewPlan3 that panics on error.
func MustPlan3(nx, ny, nz int) *Plan3 {
	p, err := NewPlan3(nx, ny, nz)
	if err != nil {
		panic(err)
	}
	return p
}

// Dims reports the grid dimensions.
func (p *Plan3) Dims() (nx, ny, nz int) { return p.nx, p.ny, p.nz }

// Size reports the total number of grid points.
func (p *Plan3) Size() int { return p.nx * p.ny * p.nz }

func (p *Plan3) checkLen(dst, src []complex128) {
	n := p.Size()
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("fourier: 3D buffer length mismatch: plan %d, dst %d, src %d", n, len(dst), len(src)))
	}
}

// Forward computes the unnormalized 3D DFT of src into dst.
// Buffers must have length Size(); dst and src may alias.
func (p *Plan3) Forward(dst, src []complex128) { p.apply(dst, src, false) }

// Inverse computes the normalized (1/N) inverse 3D DFT of src into dst.
// Buffers must have length Size(); dst and src may alias.
func (p *Plan3) Inverse(dst, src []complex128) {
	p.apply(dst, src, true)
	scale := complex(1/float64(p.Size()), 0)
	parallel.ForBlock(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] *= scale
		}
	})
}

func (p *Plan3) apply(dst, src []complex128, inverse bool) {
	p.checkLen(dst, src)
	nx, ny, nz := p.nx, p.ny, p.nz

	// Pass 1: transform along z (contiguous pencils), src -> dst.
	parallel.ForBlock(nx*ny, func(lo, hi int) {
		ws := p.getWS()
		buf := ws.u[:nz]
		for r := lo; r < hi; r++ {
			row := dst[r*nz : (r+1)*nz]
			p.pz.TransformWS(buf, src[r*nz:(r+1)*nz], inverse, ws.wsz)
			copy(row, buf)
		}
		p.putWS(ws)
	})

	// Pass 2: transform along y (stride nz) in place in dst.
	parallel.ForBlock(nx*nz, func(lo, hi int) {
		ws := p.getWS()
		in, out := ws.u[:ny], ws.v[:ny]
		for r := lo; r < hi; r++ {
			ix, iz := r/nz, r%nz
			base := ix*ny*nz + iz
			for iy := 0; iy < ny; iy++ {
				in[iy] = dst[base+iy*nz]
			}
			p.py.TransformWS(out, in, inverse, ws.wsy)
			for iy := 0; iy < ny; iy++ {
				dst[base+iy*nz] = out[iy]
			}
		}
		p.putWS(ws)
	})

	// Pass 3: transform along x (stride ny*nz) in place in dst.
	stride := ny * nz
	parallel.ForBlock(ny*nz, func(lo, hi int) {
		ws := p.getWS()
		in, out := ws.u[:nx], ws.v[:nx]
		for r := lo; r < hi; r++ {
			for ix := 0; ix < nx; ix++ {
				in[ix] = dst[r+ix*stride]
			}
			p.px.TransformWS(out, in, inverse, ws.wsx)
			for ix := 0; ix < nx; ix++ {
				dst[r+ix*stride] = out[ix]
			}
		}
		p.putWS(ws)
	})
}

// ApplySerial runs a single transform without touching the worker pool,
// for callers that manage their own outer parallelism. The inverse variant
// includes the 1/N normalization. Scratch comes from the plan's pool;
// steady state allocates nothing.
func (p *Plan3) ApplySerial(dst, src []complex128, inverse bool) {
	ws := p.getWS()
	p.ApplySerialWS(dst, src, inverse, ws)
	p.putWS(ws)
}

// ApplySerialWS is ApplySerial with caller-owned scratch (from
// NewWorkspace), for hot loops that bind one workspace per worker.
func (p *Plan3) ApplySerialWS(dst, src []complex128, inverse bool, ws *Workspace3) {
	p.checkLen(dst, src)
	p.applySerial(dst, src, inverse, ws)
	if inverse {
		scale := complex(1/float64(p.Size()), 0)
		for i := range dst {
			dst[i] *= scale
		}
	}
}

// RawSerialWS runs a single unnormalized transform (no 1/N on the inverse)
// with caller-owned scratch. Callers that fold normalization into their own
// pointwise scaling (the grid scatter/gather, the Poisson kernel multiply)
// use this to avoid a separate pass over the data.
func (p *Plan3) RawSerialWS(dst, src []complex128, inverse bool, ws *Workspace3) {
	p.checkLen(dst, src)
	p.applySerial(dst, src, inverse, ws)
}

// applySerial is the single-goroutine transform core (unnormalized).
// dst and src may alias.
func (p *Plan3) applySerial(dst, src []complex128, inverse bool, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	buf := ws.u[:nz]
	for r := 0; r < nx*ny; r++ {
		p.pz.TransformWS(buf, src[r*nz:(r+1)*nz], inverse, ws.wsz)
		copy(dst[r*nz:(r+1)*nz], buf)
	}
	p.passY(dst, inverse, ws)
	p.passX(dst, inverse, ws)
}

// passY transforms along y (stride nz) in place.
func (p *Plan3) passY(dst []complex128, inverse bool, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	in, out := ws.u[:ny], ws.v[:ny]
	for r := 0; r < nx*nz; r++ {
		ix, iz := r/nz, r%nz
		base := ix*ny*nz + iz
		for iy := 0; iy < ny; iy++ {
			in[iy] = dst[base+iy*nz]
		}
		p.py.TransformWS(out, in, inverse, ws.wsy)
		for iy := 0; iy < ny; iy++ {
			dst[base+iy*nz] = out[iy]
		}
	}
}

// passX transforms along x (stride ny*nz) in place.
func (p *Plan3) passX(dst []complex128, inverse bool, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	stride := ny * nz
	in, out := ws.u[:nx], ws.v[:nx]
	for r := 0; r < ny*nz; r++ {
		for ix := 0; ix < nx; ix++ {
			in[ix] = dst[r+ix*stride]
		}
		p.px.TransformWS(out, in, inverse, ws.wsx)
		for ix := 0; ix < nx; ix++ {
			dst[r+ix*stride] = out[ix]
		}
	}
}

// PoissonSerial performs the fused Poisson-like round trip of the Fock
// exchange in place:
//
//	buf <- IFFT[ kernel ⊙ FFT[buf] ] / N
//
// i.e. forward transform, pointwise kernel multiply (with the inverse
// normalization folded in), inverse transform - without the two extra
// full-grid passes a Forward + caller multiply + Inverse sequence costs.
// Scratch comes from the plan's pool.
func (p *Plan3) PoissonSerial(buf []complex128, kernel []float64) {
	ws := p.getWS()
	p.PoissonSerialWS(buf, kernel, ws)
	p.putWS(ws)
}

// PoissonSerialWS is PoissonSerial with caller-owned scratch.
//
// The kernel multiply rides inside the x-axis pass: after the z and y
// forward passes, each x line is forward-transformed, multiplied by
// kernel/N while still in the line buffer, and inverse-transformed before
// being written back - five grid passes total instead of seven.
func (p *Plan3) PoissonSerialWS(buf []complex128, kernel []float64, ws *Workspace3) {
	n := p.Size()
	if len(buf) != n || len(kernel) != n {
		panic(fmt.Sprintf("fourier: Poisson buffer mismatch: plan %d, buf %d, kernel %d", n, len(buf), len(kernel)))
	}
	nx, ny, nz := p.nx, p.ny, p.nz
	// Forward z pass in place.
	zbuf := ws.u[:nz]
	for r := 0; r < nx*ny; r++ {
		p.pz.TransformWS(zbuf, buf[r*nz:(r+1)*nz], false, ws.wsz)
		copy(buf[r*nz:(r+1)*nz], zbuf)
	}
	// Forward y pass in place.
	p.passY(buf, false, ws)
	// Fused x pass: forward, kernel multiply, inverse per line.
	p.passXKernel(buf, kernel, ws)
	// Inverse y pass, then inverse z pass, both in place.
	p.passY(buf, true, ws)
	for r := 0; r < nx*ny; r++ {
		p.pz.TransformWS(zbuf, buf[r*nz:(r+1)*nz], true, ws.wsz)
		copy(buf[r*nz:(r+1)*nz], zbuf)
	}
}

// passXKernel is the kernel-fused x pass of the Poisson round trip: for
// each x line, forward transform, multiply by kernel (carrying the global
// 1/N), inverse transform, write back.
func (p *Plan3) passXKernel(buf []complex128, kernel []float64, ws *Workspace3) {
	nx, ny, nz := p.nx, p.ny, p.nz
	stride := ny * nz
	invN := 1 / float64(p.Size())
	in, out := ws.u[:nx], ws.v[:nx]
	for r := 0; r < ny*nz; r++ {
		for ix := 0; ix < nx; ix++ {
			in[ix] = buf[r+ix*stride]
		}
		p.px.TransformWS(out, in, false, ws.wsx)
		for ix := 0; ix < nx; ix++ {
			out[ix] *= complex(kernel[r+ix*stride]*invN, 0)
		}
		p.px.TransformWS(in, out, true, ws.wsx)
		for ix := 0; ix < nx; ix++ {
			buf[r+ix*stride] = in[ix]
		}
	}
}

// ContractSerialWS is the fully fused Fock-exchange contraction of one
// reference orbital (the (i, j) inner step of Alg. 2):
//
//	dst += scale * phi ⊙ Poisson[ conj(phi) ⊙ src ]
//
// where Poisson[.] is the PoissonSerial round trip with the given kernel.
// The pair product conj(phi)*src is formed inside the first forward pass
// and the final accumulation inside the last inverse pass, so the whole
// contraction makes five passes over the grid. buf is caller scratch of
// length Size() (the pair buffer); dst, phi, src are full grids; dst must
// not alias buf.
func (p *Plan3) ContractSerialWS(dst, phi, src, buf []complex128, kernel []float64, scale complex128, ws *Workspace3) {
	n := p.Size()
	if len(dst) != n || len(phi) != n || len(src) != n || len(buf) != n || len(kernel) != n {
		panic("fourier: Contract buffer size mismatch")
	}
	nx, ny, nz := p.nx, p.ny, p.nz
	// Forward z pass with the pair product conj(phi)*src formed in the
	// gather, src/phi -> buf.
	in, out := ws.u[:nz], ws.v[:nz]
	for r := 0; r < nx*ny; r++ {
		base := r * nz
		for iz := 0; iz < nz; iz++ {
			ph := phi[base+iz]
			in[iz] = complex(real(ph), -imag(ph)) * src[base+iz]
		}
		p.pz.TransformWS(out, in, false, ws.wsz)
		copy(buf[base:base+nz], out)
	}
	p.passY(buf, false, ws)
	p.passXKernel(buf, kernel, ws)
	p.passY(buf, true, ws)
	// Inverse z pass with the accumulation dst += scale*phi*v fused into
	// the scatter.
	for r := 0; r < nx*ny; r++ {
		base := r * nz
		p.pz.TransformWS(out, buf[base:base+nz], true, ws.wsz)
		for iz := 0; iz < nz; iz++ {
			dst[base+iz] += scale * phi[base+iz] * out[iz]
		}
	}
}
