// Package grid builds the plane-wave discretization: the wavefunction
// G-sphere (all G with |G|^2/2 <= Ecut), its containing FFT box, and the
// twice-denser charge-density box, together with scatter/gather maps and
// normalization-aware transforms between G-space coefficients and real
// space. With the paper's parameters (Ecut = 10 Ha, 4 x 6 x 8 silicon
// supercell) it reproduces the paper's 60 x 90 x 120 wavefunction grid and
// 120 x 180 x 240 density grid exactly.
//
// Conventions: psi(r) = (1/sqrt(Omega)) * sum_G c_G exp(i G.r) with the
// sphere coefficients c_G stored contiguously; densities and potentials are
// real-space arrays on the dense box with Fourier coefficients f_G such that
// f(r) = sum_G f_G exp(i G.r).
package grid

import (
	"fmt"
	"math"

	"ptdft/internal/fourier"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
	"ptdft/internal/parallel"
)

// Grid holds the discretization for one cell and cutoff.
type Grid struct {
	Cell *lattice.Cell
	Ecut float64 // wavefunction kinetic energy cutoff, Hartree

	// Wavefunction box.
	N    [3]int // FFT dims
	NTot int
	Plan *fourier.Plan3

	// Dense (charge density) box, double the linear resolution.
	ND    [3]int
	NDTot int
	PlanD *fourier.Plan3

	// G-sphere: indices into the wavefunction box and the dense box, plus
	// the G vectors and |G|^2 per sphere entry.
	NG         int
	SphereIdx  []int
	SphereIdxD []int
	GVec       [][3]float64
	G2         []float64
	// SphereRows and SpherePlanes list, ascending and duplicate-free, the
	// wave-box z-rows (flat index ix*N[1] + iy) and x-planes (ix) that hold
	// at least one SphereIdx entry; SphereRowsD and SpherePlanesD, the
	// dense box's for SphereIdxD. A zero-padded orbital is zero everywhere
	// else, which is what the pruned syntheses of ToRealSlabWS and
	// AddNorm2DenseSlabWS skip.
	SphereRows, SpherePlanes   []int
	SphereRowsD, SpherePlanesD []int
	// G2Dense holds |G|^2 for every dense-box point (Hartree kernel).
	G2Dense []float64
	// GVecDense holds the G vector for every dense-box point.
	GVecDense [][3]float64
	// Index tables of the potential assembly, shared by every Hamiltonian
	// on the grid. CoulombDense is the Hartree kernel 4*pi/|G|^2 per
	// dense-box point (0 at G = 0); MinusGDense maps a dense-box point to
	// the point holding -G (index negation mod ND per axis, so the Nyquist
	// planes of an even dimension map to themselves); WaveToDense maps a
	// wave-box point to the dense-box point with the same Miller index.
	CoulombDense []float64
	MinusGDense  []int32
	WaveToDense  []int32

	// Per-worker dense-box scratch, recycled across density builds and
	// potential assemblies and collected with the grid.
	denseScratch parallel.ScratchPool[*DenseScratch]
}

// DenseScratch is one worker's scratch on the dense box: a split re/im box
// (one orbital of a density build; the packed rho + i v_xc pair of the
// potential assembly), a real array of the same size (the band-group
// partial density; the imaginary half of the assembly's wave-box spectrum)
// and the FFT line scratch of PlanD.
type DenseScratch struct {
	Box lanes.Slab
	Acc []float64
	WS  *fourier.Workspace3
}

// AcquireDenseScratch hands out n dense-box workspaces, one per worker;
// pair it with ReleaseDenseScratch. Sequential acquire/release cycles on
// one grid allocate nothing in steady state.
func (g *Grid) AcquireDenseScratch(n int) []*DenseScratch { return g.denseScratch.Acquire(n) }

// ReleaseDenseScratch returns an AcquireDenseScratch table to the grid.
func (g *Grid) ReleaseDenseScratch(t []*DenseScratch) { g.denseScratch.Release(t) }

// New builds the grids for the given cell and wavefunction cutoff (Ha).
func New(cell *lattice.Cell, ecut float64) (*Grid, error) {
	if ecut <= 0 {
		return nil, fmt.Errorf("grid: non-positive cutoff %g", ecut)
	}
	g := &Grid{Cell: cell, Ecut: ecut}
	gmax := math.Sqrt(2 * ecut)
	for d := 0; d < 3; d++ {
		b := 2 * math.Pi / cell.L[d]
		mmax := int(gmax / b)
		g.N[d] = fourier.NextFast(2*mmax + 1)
		g.ND[d] = fourier.NextFast(4*mmax + 1)
		// Keep the dense box an even refinement when possible so that
		// restriction/prolongation stay exact.
		if g.ND[d] < 2*g.N[d] {
			g.ND[d] = fourier.NextFast(2 * g.N[d])
		}
	}
	g.NTot = g.N[0] * g.N[1] * g.N[2]
	g.NDTot = g.ND[0] * g.ND[1] * g.ND[2]
	var err error
	if g.Plan, err = fourier.NewPlan3(g.N[0], g.N[1], g.N[2]); err != nil {
		return nil, err
	}
	if g.PlanD, err = fourier.NewPlan3(g.ND[0], g.ND[1], g.ND[2]); err != nil {
		return nil, err
	}
	g.buildSphere()
	g.buildDenseG()
	g.denseScratch.New = func() *DenseScratch {
		return &DenseScratch{
			Box: lanes.New(g.NDTot),
			Acc: make([]float64, g.NDTot),
			WS:  g.PlanD.NewWorkspace(),
		}
	}
	return g, nil
}

// MustNew is New that panics on error.
func MustNew(cell *lattice.Cell, ecut float64) *Grid {
	g, err := New(cell, ecut)
	if err != nil {
		panic(err)
	}
	return g
}

// millerFromIndex maps FFT index k in [0,n) to the signed Miller index.
func millerFromIndex(k, n int) int {
	if k <= n/2 {
		return k
	}
	return k - n
}

// indexFromMiller maps a signed Miller index to the FFT index in [0,n).
func indexFromMiller(m, n int) int {
	if m < 0 {
		return m + n
	}
	return m
}

func (g *Grid) buildSphere() {
	b := [3]float64{
		2 * math.Pi / g.Cell.L[0],
		2 * math.Pi / g.Cell.L[1],
		2 * math.Pi / g.Cell.L[2],
	}
	for ix := 0; ix < g.N[0]; ix++ {
		mx := millerFromIndex(ix, g.N[0])
		gx := float64(mx) * b[0]
		for iy := 0; iy < g.N[1]; iy++ {
			my := millerFromIndex(iy, g.N[1])
			gy := float64(my) * b[1]
			for iz := 0; iz < g.N[2]; iz++ {
				mz := millerFromIndex(iz, g.N[2])
				gz := float64(mz) * b[2]
				g2 := gx*gx + gy*gy + gz*gz
				if g2/2 > g.Ecut {
					continue
				}
				g.SphereIdx = append(g.SphereIdx, (ix*g.N[1]+iy)*g.N[2]+iz)
				dx := indexFromMiller(mx, g.ND[0])
				dy := indexFromMiller(my, g.ND[1])
				dz := indexFromMiller(mz, g.ND[2])
				g.SphereIdxD = append(g.SphereIdxD, (dx*g.ND[1]+dy)*g.ND[2]+dz)
				g.GVec = append(g.GVec, [3]float64{gx, gy, gz})
				g.G2 = append(g.G2, g2)
			}
		}
	}
	g.NG = len(g.SphereIdx)
	g.SphereRows, g.SpherePlanes = rowsAndPlanes(g.SphereIdx, g.N)
	g.SphereRowsD, g.SpherePlanesD = rowsAndPlanes(g.SphereIdxD, g.ND)
}

// rowsAndPlanes lists the z-rows and x-planes of an n box that hold the
// entries of idx, which ascend (buildSphere's loop order).
func rowsAndPlanes(idx []int, n [3]int) (rows, planes []int) {
	for _, k := range idx {
		row := k / n[2]
		if len(rows) == 0 || rows[len(rows)-1] != row {
			rows = append(rows, row)
		}
		if plane := row / n[1]; len(planes) == 0 || planes[len(planes)-1] != plane {
			planes = append(planes, plane)
		}
	}
	return rows, planes
}

func (g *Grid) buildDenseG() {
	g.G2Dense = make([]float64, g.NDTot)
	g.GVecDense = make([][3]float64, g.NDTot)
	g.CoulombDense = make([]float64, g.NDTot)
	g.MinusGDense = make([]int32, g.NDTot)
	g.WaveToDense = make([]int32, 0, g.NTot)
	b := [3]float64{
		2 * math.Pi / g.Cell.L[0],
		2 * math.Pi / g.Cell.L[1],
		2 * math.Pi / g.Cell.L[2],
	}
	idx := 0
	for ix := 0; ix < g.ND[0]; ix++ {
		gx := float64(millerFromIndex(ix, g.ND[0])) * b[0]
		for iy := 0; iy < g.ND[1]; iy++ {
			gy := float64(millerFromIndex(iy, g.ND[1])) * b[1]
			for iz := 0; iz < g.ND[2]; iz++ {
				gz := float64(millerFromIndex(iz, g.ND[2])) * b[2]
				g.G2Dense[idx] = gx*gx + gy*gy + gz*gz
				g.GVecDense[idx] = [3]float64{gx, gy, gz}
				if g.G2Dense[idx] >= 1e-12 {
					g.CoulombDense[idx] = 4 * math.Pi / g.G2Dense[idx]
				}
				mx, my, mz := (g.ND[0]-ix)%g.ND[0], (g.ND[1]-iy)%g.ND[1], (g.ND[2]-iz)%g.ND[2]
				g.MinusGDense[idx] = int32((mx*g.ND[1]+my)*g.ND[2] + mz)
				idx++
			}
		}
	}
	// Every Miller index representable on the wave box exists on the
	// (finer) dense box.
	for ix := 0; ix < g.N[0]; ix++ {
		dx := indexFromMiller(millerFromIndex(ix, g.N[0]), g.ND[0])
		for iy := 0; iy < g.N[1]; iy++ {
			dy := indexFromMiller(millerFromIndex(iy, g.N[1]), g.ND[1])
			for iz := 0; iz < g.N[2]; iz++ {
				dz := indexFromMiller(millerFromIndex(iz, g.N[2]), g.ND[2])
				g.WaveToDense = append(g.WaveToDense, int32((dx*g.ND[1]+dy)*g.ND[2]+dz))
			}
		}
	}
}

// Volume returns the cell volume.
func (g *Grid) Volume() float64 { return g.Cell.Volume() }

// DV returns the real-space volume element of the dense grid.
func (g *Grid) DV() float64 { return g.Volume() / float64(g.NDTot) }

// DVWave returns the real-space volume element of the wavefunction grid.
func (g *Grid) DVWave() float64 { return g.Volume() / float64(g.NTot) }

// ToRealSerial transforms sphere coefficients c (length NG) to real-space
// values psi(r) = (1/sqrt(Omega)) * sum_G c_G exp(iG.r) on the wavefunction
// box (length NTot) in the interleaved complex128 layout, for setup code,
// benchmarks and tests; the step path uses ToRealSlabWS, which this is a
// layout adapter around. box is overwritten. FFT scratch comes from the
// plan's pool. The 1/sqrt(Omega) normalization is folded into the sphere
// scatter and the synthesis runs unnormalized.
func (g *Grid) ToRealSerial(box []complex128, c []complex128) {
	if len(box) != g.NTot || len(c) != g.NG {
		panic("grid: ToRealSerial buffer size mismatch")
	}
	clear(box)
	scale := 1 / math.Sqrt(g.Volume())
	for s, k := range g.SphereIdx {
		box[k] = complex(real(c[s])*scale, imag(c[s])*scale)
	}
	ws := g.Plan.CheckoutWorkspace()
	g.Plan.RawSerialWS(box, box, true, ws)
	g.Plan.ReturnWorkspace(ws)
}

// ToRealSlabWS is ToRealSerial with caller-owned FFT scratch (from
// Plan.NewWorkspace, one per worker) and the real-space box in the
// lane-blocked SoA layout (internal/lanes): sphere coefficients scatter
// straight into the split re/im arrays and the synthesis runs through the
// slab FFT passes, so downstream SoA consumers (the Fock contraction) never
// re-interleave. The synthesis is the pruned inverse of
// fourier.Plan3.AddNorm2PrunedSlabWS without an accumulator: z and y run
// only over the sphere's rows and planes, same bits as the full inverse.
func (g *Grid) ToRealSlabWS(box lanes.Slab, c []complex128, ws *fourier.Workspace3) {
	if box.Len() != g.NTot || len(c) != g.NG {
		panic("grid: ToRealSlab buffer size mismatch")
	}
	box.Zero()
	scale := 1 / math.Sqrt(g.Volume())
	for s, k := range g.SphereIdx {
		box.Re[k] = real(c[s]) * scale
		box.Im[k] = imag(c[s]) * scale
	}
	g.Plan.AddNorm2PrunedSlabWS(nil, box, g.SphereRows, g.SpherePlanes, ws)
}

// FromRealSlabWS projects real-space values on the wavefunction box back
// onto the sphere coefficients, c_G = (sqrt(Omega)/NTot) * Forward(psi)[G] -
// the exact inverse of ToRealSlabWS - with caller-owned FFT scratch; the
// normalization is applied on the NG sphere entries during the gather. The
// box is consumed (transformed in place).
func (g *Grid) FromRealSlabWS(c []complex128, box lanes.Slab, ws *fourier.Workspace3) {
	if box.Len() != g.NTot || len(c) != g.NG {
		panic("grid: FromRealSlab buffer size mismatch")
	}
	g.Plan.RawSlabWS(box, box, false, ws)
	scale := math.Sqrt(g.Volume()) / float64(g.NTot)
	for s, k := range g.SphereIdx {
		c[s] = complex(box.Re[k]*scale, box.Im[k]*scale)
	}
}

// AddNorm2DenseSlabWS adds |sum_G c_G exp(iG.r)|^2, the orbital
// synthesized on the dense box (zero padding in G space), into acc,
// WITHOUT the 1/Omega of a normalized orbital: the density build folds it
// into its own scaling. box is scratch: it is zeroed and the sphere is
// scattered into it, which is the precondition of
// fourier.Plan3.AddNorm2PrunedSlabWS, the pruned inverse that transforms
// only the z-rows and x-planes the sphere touches along z and y and
// accumulates inside its x pass.
func (g *Grid) AddNorm2DenseSlabWS(acc []float64, box lanes.Slab, c []complex128, ws *fourier.Workspace3) {
	if box.Len() != g.NDTot || len(c) != g.NG {
		panic("grid: AddNorm2DenseSlab buffer size mismatch")
	}
	box.Zero()
	for s, k := range g.SphereIdxD {
		box.Re[k] = real(c[s])
		box.Im[k] = imag(c[s])
	}
	g.PlanD.AddNorm2PrunedSlabWS(acc, box, g.SphereRowsD, g.SpherePlanesD, ws)
}

// DenseForward computes the Fourier coefficients f_G of a real-space dense
// field: f_G = Forward(f)/NDTot, so that f(r) = sum_G f_G exp(iG.r).
// src is real-valued data stored as complex; dst may alias src.
func (g *Grid) DenseForward(dst, src []complex128) {
	if len(dst) != g.NDTot || len(src) != g.NDTot {
		panic("grid: DenseForward buffer size mismatch")
	}
	ws := g.PlanD.CheckoutWorkspace()
	g.PlanD.RawSerialWS(dst, src, false, ws)
	g.PlanD.ReturnWorkspace(ws)
	scale := 1 / float64(g.NDTot)
	for i, v := range dst {
		dst[i] = complex(real(v)*scale, imag(v)*scale)
	}
}

// DenseInverse synthesizes a real-space dense field from Fourier
// coefficients: f(r) = sum_G f_G exp(iG.r), the unnormalized inverse. dst
// may alias src.
func (g *Grid) DenseInverse(dst, src []complex128) {
	if len(dst) != g.NDTot || len(src) != g.NDTot {
		panic("grid: DenseInverse buffer size mismatch")
	}
	ws := g.PlanD.CheckoutWorkspace()
	g.PlanD.RawSerialWS(dst, src, true, ws)
	g.PlanD.ReturnWorkspace(ws)
}

// WavePointPositions returns the Cartesian coordinates of wavefunction-box
// grid points, in box linear-index order. Used by the real-space nonlocal
// projectors.
func (g *Grid) WavePointPositions() [][3]float64 {
	pos := make([][3]float64, g.NTot)
	idx := 0
	for ix := 0; ix < g.N[0]; ix++ {
		x := float64(ix) / float64(g.N[0]) * g.Cell.L[0]
		for iy := 0; iy < g.N[1]; iy++ {
			y := float64(iy) / float64(g.N[1]) * g.Cell.L[1]
			for iz := 0; iz < g.N[2]; iz++ {
				z := float64(iz) / float64(g.N[2]) * g.Cell.L[2]
				pos[idx] = [3]float64{x, y, z}
				idx++
			}
		}
	}
	return pos
}
