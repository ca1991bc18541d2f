// Package perf is the calibrated Summit performance model that regenerates
// the paper's evaluation: Tables 1-2 and Figures 3, 6, 7, 8, 9, 10. Every
// component cost is (documented physical scaling law) x (base constant
// calibrated against one cell of Table 1/2 at the Si1536 reference system).
// Absolute numbers therefore track the paper by construction at the
// calibration points; everything else - scaling shape, component ranking,
// crossover points, weak-scaling exponents, RK4/PT-CN ratios - follows
// from the model and is compared against the paper in EXPERIMENTS.md.
// The package is arithmetic only: it measures nothing and writes nothing
// (measurements of this repository's own code live under bench/), and its
// tests hold it against the paper's cells within stated bands and pin the
// headline numbers it reports (TestReportedNumbers).
//
// Calibration sources (all from the paper):
//   - Table 1 at 36 GPUs: per-SCF component times for Si1536.
//   - Table 2: MPI_Bcast total ~ 3.2*sqrt(P) s/step (fat-tree congestion
//     exponent 1/2 fitted across the 36..3072 GPU range).
//   - Section 6: CPU baseline 8874 s/step with 3072 cores.
//   - Section 7: 3.87e16 FLOP/step, ~90% HBM utilization, CUFFT at ~11%
//     of V100 peak.
package perf

import (
	"math"

	"ptdft/internal/machine"
)

// SystemSize describes a silicon test system of section 4.
type SystemSize struct {
	Natom int
	Ne    int // orbitals = 2 x atoms
	NG    int // wavefunction grid points
	NGd   int // charge density grid points (8x NG)
}

// SiliconSystem builds the size descriptor for an Natom silicon supercell,
// matching the paper's Si1536 reference exactly (NG = 648,000).
func SiliconSystem(natom int) SystemSize {
	ng := int(648000.0 * float64(natom) / 1536.0)
	return SystemSize{Natom: natom, Ne: 2 * natom, NG: ng, NGd: 8 * ng}
}

// Reference is the paper's headline system.
var Reference = SiliconSystem(1536)

// Model evaluates component costs for one system on Summit.
type Model struct {
	Sys SystemSize
	M   machine.Summit

	// SCFPerStep is the average self-consistency iteration count per
	// 50 as PT-CN step (section 4: average 22).
	SCFPerStep int
	// StepFactor converts per-SCF time to per-step time: 22 SCF + the
	// initial residual + the energy evaluation + orthogonalization
	// amortization = 24.2 per-SCF equivalents (Table 1: Total/perSCF).
	StepFactor float64
	// CPUStepSeconds is the 3072-core CPU baseline per step for the
	// reference system (section 6: 8874 s).
	CPUStepSeconds float64
}

// NewModel builds the calibrated model for a system.
func New(sys SystemSize) *Model {
	return &Model{
		Sys:            sys,
		M:              machine.Default(),
		SCFPerStep:     22,
		StepFactor:     24.2,
		CPUStepSeconds: 8874,
	}
}

// Calibration constants: per-SCF component times of Table 1 at the
// reference system on 36 GPUs, together with their scaling laws.
const (
	refP = 36.0

	baseFockComp    = 90.99 // prop Ne^2 NG log NG / P (N^2 FFT pairs)
	baseFockMPIc    = 0.71 / 6.0
	baseLocalPseudo = 0.337 // prop Ne NG log NG / P
	baseA2AVVol     = 28.1  // prop Ne NG / P (transpose volume)
	baseA2AVLat     = 0.103 // latency floor
	baseOverlapAR   = 0.55  // prop Ne^2 + const (ring allreduce, P-indep)
	baseResidComp   = 51.5  // prop Ne NG / P (BLAS-1 + GEMM rows)
	baseAMMemcpy    = 59.1  // prop Ne NG / P (20-deep history staging)
	baseAMCompVol   = 82.8  // prop Ne NG / P
	baseAMCompLat   = 0.0125
	baseDensityComp = 4.86 // prop Ne NGd log NGd / P
	baseDensityAR   = 0.17 // prop NGd (ring allreduce)
	baseOthersConst = 1.40 // prop NGd: dense-grid potential assembly
	baseOthersP     = 40.0 // prop NGd / P: distributed FFTW part
	baseOthersBcast = 0.008

	// fftFlopsPerPoint is the 5 N log2 N complex FFT flop model.
	fftFlopCoef = 5.0
)

// scaling helpers relative to the reference system.
func (m *Model) sNe() float64  { return float64(m.Sys.Ne) / float64(Reference.Ne) }
func (m *Model) sNG() float64  { return float64(m.Sys.NG) / float64(Reference.NG) }
func (m *Model) sNGd() float64 { return float64(m.Sys.NGd) / float64(Reference.NGd) }
func (m *Model) sLogNG() float64 {
	return math.Log2(float64(m.Sys.NG)) / math.Log2(float64(Reference.NG))
}

// SCFBreakdown is one row-group of Table 1: per-SCF component times (s).
type SCFBreakdown struct {
	FockMPI          float64
	FockComp         float64
	FockTotal        float64
	LocalPseudo      float64
	HPsiTotal        float64
	WavefuncA2AV     float64
	OverlapAllreduce float64
	ResidComp        float64
	ResidTotal       float64
	AMMemcpy         float64
	AMComp           float64
	AMTotal          float64
	DensityComp      float64
	DensityAllreduce float64
	DensityTotal     float64
	Others           float64
	PerSCF           float64
}

// SCF evaluates the per-SCF breakdown on p GPUs.
func (m *Model) SCF(p int) SCFBreakdown {
	pf := float64(p)
	sFock := m.sNe() * m.sNe() * m.sNG() * m.sLogNG()
	sBand := m.sNe() * m.sNG()
	var b SCFBreakdown
	b.FockComp = baseFockComp * refP / pf * sFock
	b.FockMPI = baseFockMPIc * math.Sqrt(pf) * sBand
	b.FockTotal = b.FockComp + b.FockMPI
	b.LocalPseudo = baseLocalPseudo * refP / pf * sBand * m.sLogNG()
	b.HPsiTotal = b.FockTotal + b.LocalPseudo
	b.WavefuncA2AV = baseA2AVVol/pf*sBand + baseA2AVLat*m.sNe()
	b.OverlapAllreduce = baseOverlapAR * m.sNe() * m.sNe()
	b.ResidComp = baseResidComp / pf * sBand
	b.ResidTotal = b.WavefuncA2AV + b.OverlapAllreduce + b.ResidComp
	b.AMMemcpy = baseAMMemcpy / pf * sBand
	b.AMComp = baseAMCompVol/pf*sBand + baseAMCompLat*m.sNe()
	b.AMTotal = b.AMMemcpy + b.AMComp
	b.DensityComp = baseDensityComp / pf * m.sNe() * m.sNGd()
	b.DensityAllreduce = baseDensityAR * m.sNGd()
	b.DensityTotal = b.DensityComp + b.DensityAllreduce
	b.Others = baseOthersConst*m.sNGd() + baseOthersP*m.sNGd()/pf + baseOthersBcast*math.Sqrt(pf)*m.sNGd()
	b.PerSCF = b.HPsiTotal + b.ResidTotal + b.AMTotal + b.DensityTotal + b.Others
	return b
}

// StepTotal is the wall-clock time of one 50 as PT-CN step on p GPUs.
func (m *Model) StepTotal(p int) float64 {
	return m.StepFactor * m.SCF(p).PerSCF
}

// Speedup is the acceleration over the CPU baseline (valid for the
// reference system, where the baseline is measured).
func (m *Model) Speedup(p int) float64 {
	return m.cpuStep() / m.StepTotal(p)
}

func (m *Model) cpuStep() float64 {
	// Scale the measured reference baseline by total work.
	s := m.sNe() * m.sNe() * m.sNG() * m.sLogNG()
	return m.CPUStepSeconds * s
}

// HPsiPercent is the last row of Table 1.
func (m *Model) HPsiPercent(p int) float64 {
	b := m.SCF(p)
	return b.HPsiTotal / b.PerSCF * 100
}

// CommBreakdown is Table 2: per-step communication/computation split (s).
type CommBreakdown struct {
	MemcpyTime     float64
	A2AVTime       float64
	AllreduceTime  float64
	BcastTime      float64
	AllgathervTime float64
	MPITotal       float64
	ComputeTime    float64
	Total          float64
}

// Comm evaluates the Table 2 breakdown on p GPUs.
func (m *Model) Comm(p int) CommBreakdown {
	pf := float64(p)
	b := m.SCF(p)
	var c CommBreakdown
	sBand := m.sNe() * m.sNG()
	// Memory copies beyond the Anderson staging: density fields and
	// exchange buffers; calibrated against Table 2 at the reference.
	c.MemcpyTime = 2150.0/pf*sBand + 1.5*m.sNGd()
	c.A2AVTime = m.StepFactor * b.WavefuncA2AV
	c.AllreduceTime = m.StepFactor * (b.OverlapAllreduce + b.DensityAllreduce)
	// Wavefunction broadcast for the 24 Fock applications plus the
	// density-related broadcasts of the "others" component.
	c.BcastTime = m.StepFactor*b.FockMPI + m.StepFactor*baseOthersBcast*math.Sqrt(pf)*m.sNGd()
	c.AllgathervTime = 1.2 * m.sNGd()
	c.MPITotal = c.A2AVTime + c.AllreduceTime + c.BcastTime + c.AllgathervTime
	c.Total = m.StepTotal(p)
	c.ComputeTime = c.Total - c.MPITotal - c.MemcpyTime
	return c
}

// FLOPPerStep returns the double-precision operation count of one step,
// dominated by the 24 Fock applications (Ne^2 FFT pairs each):
// section 7 reports 3.87e16 for the reference system.
func (m *Model) FLOPPerStep() float64 {
	ng := float64(m.Sys.NG)
	fftFlop := fftFlopCoef * ng * math.Log2(ng)
	ne := float64(m.Sys.Ne)
	fock := 24.0 * ne * ne * 2 * fftFlop
	// Remaining ~7% (Table 1: Fock is 93% of FLOP): density, residual,
	// rotations, Anderson.
	return fock / 0.93
}

// FLOPSEfficiency is the fraction of aggregate V100 peak sustained
// (section 7: 5.5% at 36 GPUs falling to 2% at 768).
func (m *Model) FLOPSEfficiency(p int) float64 {
	t := m.StepTotal(p)
	flops := m.FLOPPerStep() / (float64(p) * t)
	return flops / (m.M.GPUPeakTFLOPS * 1e12)
}

// RK4StepTotal is the wall-clock time to advance the same 50 as with the
// explicit RK4 integrator: 100 steps of 0.5 as, four Hamiltonian rebuilds
// and applications each. The RK4 path pays the unoverlapped
// double-precision broadcast (the section 3.2 communication optimizations
// belong to the PT-CN production path; see EXPERIMENTS.md).
func (m *Model) RK4StepTotal(p int) float64 {
	b := m.SCF(p)
	perApp := b.FockComp + 2*b.FockMPI*2 + b.LocalPseudo
	perRK4Step := 4*perApp + 4*(b.DensityTotal+b.Others)
	// One orthogonalization per RK4 step (residual-style linear algebra).
	perRK4Step += b.ResidTotal
	return 100 * perRK4Step
}

// FockStage identifies one bar of Fig. 3.
type FockStage struct {
	Name    string
	Seconds float64 // per SCF Fock-exchange wall time
}

// FockStages reproduces Fig. 3: the Fock exchange time per SCF for the CPU
// reference and the five GPU optimization stages of section 3.2, at p GPUs
// (the paper uses 72 GPUs vs 3072 CPU cores). Stage multipliers are
// documented estimates - the paper presents this figure as a bar chart
// without numeric labels - anchored so that the final stage equals the
// Table 1 value and the CPU/GPU ratio is the stated ~7x.
func (m *Model) FockStages(p int) []FockStage {
	b := m.SCF(p)
	cpu := 0.95 * m.cpuStep() / m.StepFactor // Fock is ~95% of CPU time
	dpMPI := 2 * b.FockMPI                   // double precision, not overlapped
	copies := 60.0 / float64(p) * m.sNe() * m.sNG()
	return []FockStage{
		{"CPU (3072 cores)", cpu},
		{"GPU band-by-band (CUFFT + custom kernels)", 2.2*b.FockComp + 2*dpMPI + 3*copies},
		{"+ batched FFTs", b.FockComp + 2*dpMPI + 3*copies},
		{"+ CUDA-aware MPI / GPUDirect", b.FockComp + 2*dpMPI + copies},
		{"+ single-precision MPI", b.FockComp + dpMPI + copies},
		{"+ computation/communication overlap", b.FockTotal},
	}
}

// MemoryPerRankGB estimates the Anderson-mixing memory per MPI rank
// (section 7: 20 wavefunction copies; <20 GB per rank at 36 GPUs, staged
// in the 512 GB node DRAM).
func (m *Model) MemoryPerRankGB(p int, history int) float64 {
	perWf := float64(m.Sys.NG) * 16 / 1e9 // complex128
	bandsPerRank := float64(m.Sys.Ne) / float64(p)
	return perWf * bandsPerRank * float64(history)
}

// GPUCounts are the processor counts of Tables 1-2.
var GPUCounts = []int{36, 72, 144, 288, 384, 768, 1536, 3072}

// WeakScalingPoint is one bar of Fig. 8.
type WeakScalingPoint struct {
	Natom int
	GPUs  int
	Time  float64 // wall clock per 50 as
	Ideal float64 // O(Natom^2) reference through the largest system
}

// WeakScaling evaluates Fig. 8: systems from 48 to 1536 atoms with
// GPUs = Natom/2. The O(Natom^2) ideal curve is anchored at the largest
// system. Measured growth between sizes is slower than N^2 because small
// systems are dominated by costs that do not grow as N^2 ("our
// implementation scales even better than that indicated by the ideal
// scaling"), approaching the ideal exponent once the Fock exchange
// dominates ("even with the system size increased to 1536 atoms, the weak
// scaling is still very close to the ideal scaling").
func WeakScaling(natoms []int) []WeakScalingPoint {
	out := make([]WeakScalingPoint, len(natoms))
	for i, n := range natoms {
		m := New(SiliconSystem(n))
		out[i] = WeakScalingPoint{Natom: n, GPUs: n / 2, Time: m.StepTotal(n / 2)}
	}
	last := len(out) - 1
	tRef := out[last].Time
	nRef := natoms[last]
	for i := range out {
		r := float64(out[i].Natom) / float64(nRef)
		out[i].Ideal = tRef * r * r
	}
	return out
}

// GrowthExponent returns the effective weak-scaling exponent between two
// points: log(t2/t1)/log(N2/N1); 2 is the ideal O(N^2).
func GrowthExponent(a, b WeakScalingPoint) float64 {
	return math.Log(b.Time/a.Time) / math.Log(float64(b.Natom)/float64(a.Natom))
}
