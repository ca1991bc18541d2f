package perf

import (
	"math"
	"testing"
)

// paperTable1 holds the per-SCF Table 1 cells we calibrate/validate
// against: GPUs -> {FockComp, FockTotal, PerSCF, Total}.
var paperTable1 = map[int][4]float64{
	36:   {90.99, 91.7, 101.36, 2453.8},
	72:   {45.61, 46.5, 52.4, 1269.1},
	144:  {27.05, 28.3, 32.5, 783.0},
	288:  {11.27, 13.1, 16.4, 393.9},
	384:  {8.31, 10.3, 13.4, 323.2},
	768:  {4.38, 8.1, 10.9, 260.9},
	1536: {2.44, 8.5, 10.9, 262.5},
	3072: {1.43, 9.5, 12.1, 286.6},
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestReferenceSystemSize(t *testing.T) {
	if Reference.Ne != 3072 {
		t.Errorf("Ne = %d, want 3072", Reference.Ne)
	}
	if Reference.NG != 648000 {
		t.Errorf("NG = %d, want 648000", Reference.NG)
	}
	if Reference.NGd != 5184000 {
		t.Errorf("NGd = %d, want 8x NG", Reference.NGd)
	}
}

func TestCalibrationPointExact(t *testing.T) {
	m := New(Reference)
	b := m.SCF(36)
	if relErr(b.FockComp, 90.99) > 1e-12 {
		t.Errorf("calibration broken: FockComp(36) = %g", b.FockComp)
	}
	if relErr(b.FockMPI, 0.71) > 1e-12 {
		t.Errorf("calibration broken: FockMPI(36) = %g", b.FockMPI)
	}
}

func TestTable1FockComputationShape(t *testing.T) {
	// The Fock computation is the paper's dominant term; the 1/P model
	// must track every measured cell within 35% (the paper itself shows
	// deviations from ideal scaling at 144 and 3072 GPUs).
	m := New(Reference)
	for p, row := range paperTable1 {
		got := m.SCF(p).FockComp
		if e := relErr(got, row[0]); e > 0.35 {
			t.Errorf("P=%d: FockComp model %.2f vs paper %.2f (err %.0f%%)", p, got, row[0], e*100)
		}
	}
}

func TestTable1PerSCFShape(t *testing.T) {
	m := New(Reference)
	for p, row := range paperTable1 {
		got := m.SCF(p).PerSCF
		if e := relErr(got, row[2]); e > 0.30 {
			t.Errorf("P=%d: perSCF model %.2f vs paper %.2f (err %.0f%%)", p, got, row[2], e*100)
		}
	}
}

func TestTable1TotalShape(t *testing.T) {
	m := New(Reference)
	for p, row := range paperTable1 {
		got := m.StepTotal(p)
		if e := relErr(got, row[3]); e > 0.30 {
			t.Errorf("P=%d: step total model %.1f vs paper %.1f (err %.0f%%)", p, got, row[3], e*100)
		}
	}
}

func TestSpeedupMatchesPaperHeadlines(t *testing.T) {
	// Section 6: 7x at 72 GPUs (equal power), 34x at 768 GPUs (best).
	m := New(Reference)
	if s := m.Speedup(72); math.Abs(s-7.0) > 1.0 {
		t.Errorf("speedup(72) = %.1f, paper reports 7.0", s)
	}
	if s := m.Speedup(768); math.Abs(s-34.0) > 5.0 {
		t.Errorf("speedup(768) = %.1f, paper reports 34", s)
	}
	// Scaling saturates: 3072 GPUs is no better than 768.
	if m.Speedup(3072) > m.Speedup(768)+1 {
		t.Error("model should saturate beyond 768 GPUs as the paper observed")
	}
}

func TestStrongScalingSaturates(t *testing.T) {
	// Fig. 7a: near-ideal below 384, MPI-dominated beyond 768.
	m := New(Reference)
	t36 := m.StepTotal(36)
	t144 := m.StepTotal(144)
	eff144 := t36 / t144 / 4.0 // parallel efficiency going 36 -> 144
	if eff144 < 0.75 {
		t.Errorf("efficiency at 144 GPUs %.2f, want near-ideal", eff144)
	}
	t768 := m.StepTotal(768)
	t3072 := m.StepTotal(3072)
	if t3072 < t768*0.9 {
		t.Errorf("scaling should break down after 768 GPUs: t768=%.0f t3072=%.0f", t768, t3072)
	}
}

func TestHPsiPercentRange(t *testing.T) {
	// Table 1 last row: ~90% at 36 GPUs falling to ~75-80% at 768+.
	m := New(Reference)
	if p := m.HPsiPercent(36); p < 85 || p > 95 {
		t.Errorf("HPsi%%(36) = %.1f, paper reports 90%%", p)
	}
	if p := m.HPsiPercent(768); p < 65 || p > 85 {
		t.Errorf("HPsi%%(768) = %.1f, paper reports 74.6%%", p)
	}
}

func TestTable2BcastGrowsTable2MemcpyShrinks(t *testing.T) {
	m := New(Reference)
	paperBcast := map[int]float64{36: 18.78, 144: 31.06, 768: 92.26, 3072: 193.89}
	for p, want := range paperBcast {
		got := m.Comm(p).BcastTime
		if e := relErr(got, want); e > 0.35 {
			t.Errorf("P=%d: Bcast model %.1f vs paper %.1f", p, got, want)
		}
	}
	paperMemcpy := map[int]float64{36: 60.80, 288: 8.57, 3072: 2.24}
	for p, want := range paperMemcpy {
		got := m.Comm(p).MemcpyTime
		if e := relErr(got, want); e > 0.35 {
			t.Errorf("P=%d: memcpy model %.1f vs paper %.1f", p, got, want)
		}
	}
}

func TestTable2MPIOvertakesComputeAtScale(t *testing.T) {
	// The paper's conclusion: at 36 GPUs compute dominates (2341 vs 52);
	// by 3072 GPUs MPI exceeds compute (212 vs 72).
	m := New(Reference)
	c36 := m.Comm(36)
	if c36.MPITotal > c36.ComputeTime/10 {
		t.Errorf("at 36 GPUs compute should dominate: MPI %.0f vs compute %.0f", c36.MPITotal, c36.ComputeTime)
	}
	c3072 := m.Comm(3072)
	if c3072.MPITotal < c3072.ComputeTime {
		t.Errorf("at 3072 GPUs MPI should dominate: MPI %.0f vs compute %.0f", c3072.MPITotal, c3072.ComputeTime)
	}
}

func TestFLOPPerStepMatchesNVPROF(t *testing.T) {
	// Section 7: 3.87e16 FLOP per TDDFT step.
	m := New(Reference)
	got := m.FLOPPerStep()
	if e := relErr(got, 3.87e16); e > 0.25 {
		t.Errorf("FLOP/step = %.3g, paper (NVPROF) reports 3.87e16", got)
	}
}

func TestFLOPSEfficiencyDeclines(t *testing.T) {
	// Section 7: 5.5% at 36 GPUs, ~2% at 768.
	m := New(Reference)
	e36 := m.FLOPSEfficiency(36)
	if e36 < 0.04 || e36 > 0.07 {
		t.Errorf("efficiency(36) = %.3f, paper reports 0.055", e36)
	}
	e768 := m.FLOPSEfficiency(768)
	if e768 < 0.015 || e768 > 0.035 {
		t.Errorf("efficiency(768) = %.3f, paper reports ~0.02", e768)
	}
	if e768 >= e36 {
		t.Error("efficiency must decline with GPU count")
	}
}

func TestRK4Ratio(t *testing.T) {
	// Fig. 6: PT-CN is 20x faster at 36 GPUs growing to ~30x at 768
	// (paper text); the chart bars indicate >=15x. Require the ratio to
	// be large and to grow with P.
	m := New(Reference)
	r36 := m.RK4StepTotal(36) / m.StepTotal(36)
	r768 := m.RK4StepTotal(768) / m.StepTotal(768)
	if r36 < 14 || r36 > 26 {
		t.Errorf("RK4/PT-CN ratio at 36 GPUs = %.1f, paper reports ~20", r36)
	}
	if r768 < 17 || r768 > 34 {
		t.Errorf("RK4/PT-CN ratio at 768 GPUs = %.1f, paper reports ~30", r768)
	}
	if r768 <= r36 {
		t.Error("ratio must grow with GPU count (paper: 20x -> 30x)")
	}
}

func TestRK4AbsoluteScale(t *testing.T) {
	// Fig. 6 bars: RK4 at 36 GPUs is ~40000 s per 50 as.
	m := New(Reference)
	got := m.RK4StepTotal(36)
	if got < 30000 || got > 50000 {
		t.Errorf("RK4(36) = %.0f s, chart shows ~40000 s", got)
	}
}

func TestFockStagesOrdering(t *testing.T) {
	// Fig. 3: each optimization must reduce the time; CPU/final ~ 7x.
	m := New(Reference)
	stages := m.FockStages(72)
	if len(stages) != 6 {
		t.Fatalf("want 6 stages, got %d", len(stages))
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].Seconds >= stages[i-1].Seconds {
			t.Errorf("stage %q (%.1f) not faster than %q (%.1f)",
				stages[i].Name, stages[i].Seconds, stages[i-1].Name, stages[i-1].Seconds)
		}
	}
	ratio := stages[0].Seconds / stages[len(stages)-1].Seconds
	if ratio < 6 || ratio > 9 {
		t.Errorf("CPU/GPU Fock ratio = %.1f, paper reports ~7", ratio)
	}
	// Final stage equals the Table 1 value by construction.
	if relErr(stages[5].Seconds, m.SCF(72).FockTotal) > 1e-12 {
		t.Error("final stage must equal the Table 1 Fock total")
	}
}

func TestWeakScaling(t *testing.T) {
	// Fig. 8: 48..1536 atoms with GPUs = Natom/2; close to O(N^2) with
	// small systems scaling better than ideal.
	natoms := []int{48, 96, 192, 384, 768, 1536}
	pts := WeakScaling(natoms)
	// Paper: Si192 on 96 GPUs takes ~16 s per 50 as.
	for _, pt := range pts {
		if pt.Natom == 192 {
			if pt.Time < 8 || pt.Time > 26 {
				t.Errorf("Si192 step = %.1f s, paper reports ~16 s", pt.Time)
			}
			if pt.GPUs != 96 {
				t.Errorf("Si192 GPUs = %d, want 96", pt.GPUs)
			}
		}
	}
	// The largest system anchors the ideal curve.
	last := pts[len(pts)-1]
	if relErr(last.Time, last.Ideal) > 1e-12 {
		t.Error("ideal curve must pass through the largest system")
	}
	// "Scales even better than ideal": the effective growth exponent
	// between sizes stays below the ideal 2, and approaches it at the
	// large end where the Fock exchange dominates ("still very close to
	// the ideal scaling" at 1536 atoms).
	for i := 1; i < len(pts); i++ {
		e := GrowthExponent(pts[i-1], pts[i])
		if e > 2.05 {
			t.Errorf("Si%d->Si%d: growth exponent %.2f above ideal 2", pts[i-1].Natom, pts[i].Natom, e)
		}
		if e <= 0 {
			t.Errorf("Si%d->Si%d: time must grow with system size", pts[i-1].Natom, pts[i].Natom)
		}
	}
	eLast := GrowthExponent(pts[len(pts)-2], last)
	if eLast < 1.5 {
		t.Errorf("final growth exponent %.2f: should approach the ideal 2 as Fock dominates", eLast)
	}
}

func TestMemoryBudget(t *testing.T) {
	// Section 7: at 36 GPUs each rank holds <100 wavefunctions; 20-copy
	// Anderson history needs <20 GB per rank, 120 GB per node - inside
	// the 512 GB Summit node.
	m := New(Reference)
	gb := m.MemoryPerRankGB(36, 20)
	if gb > 20 {
		t.Errorf("Anderson memory %.1f GB per rank, paper bounds it by 20", gb)
	}
	perNode := gb * 6
	if perNode > 512 {
		t.Errorf("node memory %.0f GB exceeds Summit's 512 GB", perNode)
	}
	if perNode < 50 || perNode > 200 {
		t.Errorf("node memory %.0f GB, paper estimates ~120 GB", perNode)
	}
}

func TestPowerComparisonSection6(t *testing.T) {
	m := New(Reference)
	pc := m.M.ComparePower(3072, 72, m.cpuStep(), m.StepTotal(72))
	if pc.CPUNodes != 70 {
		// 3072/44 = 69.8 -> 70 by pure core count; the paper provisions 73
		// nodes in practice. Either way the power conclusion holds.
		t.Logf("CPU nodes = %d (paper provisions 73)", pc.CPUNodes)
	}
	if pc.GPUNodes != 12 {
		t.Errorf("GPU nodes = %d, want 12", pc.GPUNodes)
	}
	if pc.GPUPowerW != 26160 {
		t.Errorf("GPU power = %.0f W, paper reports 26160", pc.GPUPowerW)
	}
	if pc.SpeedupAtEqualPower < 6 || pc.SpeedupAtEqualPower > 8 {
		t.Errorf("equal-power speedup = %.1f, paper reports 7", pc.SpeedupAtEqualPower)
	}
}

func TestReportedNumbers(t *testing.T) {
	// The model's own headline outputs, to four figures: the numbers
	// EXPERIMENTS.md quotes and `summitsim` prints. The tests above hold
	// the model against the paper within a band; this one holds it still.
	m := New(Reference)
	stages := m.FockStages(72)
	c768, c3072 := m.Comm(768), m.Comm(3072)
	weak := WeakScaling([]int{48, 96, 192, 384, 768, 1536})
	hoursPerFs := m.StepTotal(768) * (1000.0 / 50.0) / 3600 // 50 as steps
	for _, row := range []struct {
		name      string
		got, want float64
	}{
		{"Table 1: s/step at 768 GPUs", m.StepTotal(768), 250.8},
		{"Table 1: speedup at 768 GPUs", m.Speedup(768), 35.38},
		{"abstract (1.5 h/fs): hours per fs at 768 GPUs", hoursPerFs, 1.393},
		{"Table 2: Bcast s at 3072 GPUs", c3072.BcastTime, 169.5},
		{"Table 2: MPI % at 3072 GPUs", c3072.MPITotal / c3072.Total * 100, 75.85},
		{"Fig. 3: first/last stage ratio", stages[0].Seconds / stages[len(stages)-1].Seconds, 7.492},
		{"Fig. 3: final stage s", stages[len(stages)-1].Seconds, 46.50},
		{"Fig. 6: RK4/PT-CN at 36 GPUs", m.RK4StepTotal(36) / m.StepTotal(36), 15.88},
		{"Fig. 6: RK4/PT-CN at 768 GPUs", m.RK4StepTotal(768) / m.StepTotal(768), 31.00},
		{"Fig. 7: parallel efficiency % at 384 GPUs", m.StepTotal(36) / m.StepTotal(384) / (384.0 / 36.0) * 100, 68.28},
		{"Fig. 8: Si192 s per 50 as", weak[2].Time, 9.537},
		{"Fig. 8: final growth exponent", GrowthExponent(weak[4], weak[5]), 1.859},
		{"Fig. 9: others % at 36 GPUs", m.SCF(36).Others / m.SCF(36).PerSCF * 100, 2.516},
		{"Fig. 9: others % at 768 GPUs", m.SCF(768).Others / m.SCF(768).PerSCF * 100, 16.15},
		{"Fig. 10: Bcast s at 768 GPUs", c768.BcastTime, 84.73},
		{"Fig. 10: compute s at 768 GPUs", c768.ComputeTime, 139.8},
		{"section 6: speedup at equal power", m.M.ComparePower(3072, 72, m.cpuStep(), m.StepTotal(72)).SpeedupAtEqualPower, 6.962},
	} {
		if relErr(row.got, row.want) > 5e-4 {
			t.Errorf("%s = %.5g, want %.4g", row.name, row.got, row.want)
		}
	}
}
