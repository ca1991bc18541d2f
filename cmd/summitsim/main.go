// Command summitsim regenerates every table and figure of the paper's
// evaluation (section 6-7) from the calibrated Summit performance model:
//
//	summitsim -experiment table1    # component wall-clock table
//	summitsim -experiment table2    # MPI / memcpy / compute breakdown
//	summitsim -experiment fig3      # Fock optimization stages
//	summitsim -experiment fig6      # RK4 vs PT-CN
//	summitsim -experiment fig7      # strong scaling (total + components)
//	summitsim -experiment fig8      # weak scaling 48..1536 atoms
//	summitsim -experiment fig9      # per-SCF component times
//	summitsim -experiment fig10     # communication breakdown
//	summitsim -experiment power     # section 6 power comparison
//	summitsim -experiment flops     # section 7 FLOP/efficiency analysis
//	summitsim -experiment all
//
// Output is aligned text matching the rows/series the paper reports, for
// side-by-side comparison in EXPERIMENTS.md.
//
// One experiment is measured, not modeled, and runs only when named (it
// takes seconds and is not part of `-experiment all`): `-experiment
// faults` runs a real propagation through sim.Run with injected rank
// crashes, sweeping crash step x checkpoint cadence to measure recovery
// overhead.
package main

import (
	"flag"
	"fmt"
	"os"

	"ptdft/internal/perf"
	"ptdft/internal/trace"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to regenerate (table1,table2,fig3,fig6,fig7,fig8,fig9,fig10,power,flops,all; faults measures the real distributed code and runs only when named)")
	natom := flag.Int("natoms", 1536, "silicon system size (atoms)")
	traceFile := flag.String("tracefile", "", "with -experiment faults: record the measured runs' per-rank span timeline and write it here as Chrome trace-event JSON")
	flag.Parse()

	m := perf.New(perf.SiliconSystem(*natom))
	run := func(name string) bool { return *experiment == name || *experiment == "all" }
	any := false
	if run("table1") {
		table1(m)
		any = true
	}
	if run("table2") {
		table2(m)
		any = true
	}
	if run("fig3") {
		fig3(m)
		any = true
	}
	if run("fig6") {
		fig6(m)
		any = true
	}
	if run("fig7") {
		fig7(m)
		any = true
	}
	if run("fig8") {
		fig8()
		any = true
	}
	if run("fig9") {
		fig9(m)
		any = true
	}
	if run("fig10") {
		fig10(m)
		any = true
	}
	if run("power") {
		power(m)
		any = true
	}
	if run("flops") {
		flops(m)
		any = true
	}
	// Measured, not modeled: only run when asked for by name. This is the
	// experiment a timeline dump makes sense for - it drives the real
	// goroutine-MPI runtime, so -tracefile captures every world it launched
	// on shared per-rank tracks.
	var rec *trace.Recorder
	if *traceFile != "" && *experiment == "faults" {
		rec = trace.NewRecorder()
	}
	if *experiment == "faults" {
		faults(rec)
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	if rec != nil {
		if err := rec.WriteChromeTraceFile(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (Chrome trace-event JSON; open in chrome://tracing or Perfetto)\n", *traceFile)
	}
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func table1(m *perf.Model) {
	header("Table 1: wall clock of computational components, Si" + itoa(m.Sys.Natom))
	fmt.Printf("%-36s", "Number of GPUs")
	for _, p := range perf.GPUCounts {
		fmt.Printf("%9d", p)
	}
	fmt.Println()
	rows := []struct {
		name string
		get  func(b perf.SCFBreakdown) float64
	}{
		{"Fock exchange operator MPI", func(b perf.SCFBreakdown) float64 { return b.FockMPI }},
		{"Fock exchange operator computation", func(b perf.SCFBreakdown) float64 { return b.FockComp }},
		{"Fock exchange operator total time", func(b perf.SCFBreakdown) float64 { return b.FockTotal }},
		{"Local and semi-local part", func(b perf.SCFBreakdown) float64 { return b.LocalPseudo }},
		{"HPsi total time", func(b perf.SCFBreakdown) float64 { return b.HPsiTotal }},
		{"Wavefunction MPI_Alltoallv", func(b perf.SCFBreakdown) float64 { return b.WavefuncA2AV }},
		{"<Psi|Psi> MPI_Allreduce", func(b perf.SCFBreakdown) float64 { return b.OverlapAllreduce }},
		{"Residual computation", func(b perf.SCFBreakdown) float64 { return b.ResidComp }},
		{"Residual related total time", func(b perf.SCFBreakdown) float64 { return b.ResidTotal }},
		{"Anderson CPU-GPU memory copy", func(b perf.SCFBreakdown) float64 { return b.AMMemcpy }},
		{"Anderson computation time", func(b perf.SCFBreakdown) float64 { return b.AMComp }},
		{"Anderson mixing total time", func(b perf.SCFBreakdown) float64 { return b.AMTotal }},
		{"Density computation time", func(b perf.SCFBreakdown) float64 { return b.DensityComp }},
		{"Density MPI_Allreduce", func(b perf.SCFBreakdown) float64 { return b.DensityAllreduce }},
		{"Density evaluation total time", func(b perf.SCFBreakdown) float64 { return b.DensityTotal }},
		{"Others", func(b perf.SCFBreakdown) float64 { return b.Others }},
		{"per SCF time", func(b perf.SCFBreakdown) float64 { return b.PerSCF }},
	}
	for _, r := range rows {
		fmt.Printf("%-36s", r.name)
		for _, p := range perf.GPUCounts {
			fmt.Printf("%9.3f", r.get(m.SCF(p)))
		}
		fmt.Println()
	}
	fmt.Printf("%-36s", "Total time")
	for _, p := range perf.GPUCounts {
		fmt.Printf("%9.1f", m.StepTotal(p))
	}
	fmt.Println()
	fmt.Printf("%-36s", "Total speedup (vs 3072-core CPU)")
	for _, p := range perf.GPUCounts {
		fmt.Printf("%8.1fx", m.Speedup(p))
	}
	fmt.Println()
	fmt.Printf("%-36s", "HPsi percentage")
	for _, p := range perf.GPUCounts {
		fmt.Printf("%8.1f%%", m.HPsiPercent(p))
	}
	fmt.Println()
}

func table2(m *perf.Model) {
	header("Table 2: MPI, CPU-GPU memory copy and computation breakdown")
	fmt.Printf("%-28s", "Number of GPUs")
	for _, p := range perf.GPUCounts {
		fmt.Printf("%9d", p)
	}
	fmt.Println()
	rows := []struct {
		name string
		get  func(c perf.CommBreakdown) float64
	}{
		{"CPU-GPU memory copy time", func(c perf.CommBreakdown) float64 { return c.MemcpyTime }},
		{"MPI_Alltoallv time", func(c perf.CommBreakdown) float64 { return c.A2AVTime }},
		{"MPI_Allreduce time", func(c perf.CommBreakdown) float64 { return c.AllreduceTime }},
		{"MPI_Bcast time", func(c perf.CommBreakdown) float64 { return c.BcastTime }},
		{"MPI_AllGatherv time", func(c perf.CommBreakdown) float64 { return c.AllgathervTime }},
		{"MPI total time", func(c perf.CommBreakdown) float64 { return c.MPITotal }},
		{"Computational time", func(c perf.CommBreakdown) float64 { return c.ComputeTime }},
	}
	for _, r := range rows {
		fmt.Printf("%-28s", r.name)
		for _, p := range perf.GPUCounts {
			fmt.Printf("%9.2f", r.get(m.Comm(p)))
		}
		fmt.Println()
	}
}

func fig3(m *perf.Model) {
	header("Fig. 3: Fock exchange wall time per SCF across optimization stages (72 GPUs)")
	stages := m.FockStages(72)
	for _, s := range stages {
		fmt.Printf("%-48s %8.1f s\n", s.Name, s.Seconds)
	}
	fmt.Printf("CPU / final-GPU ratio: %.1fx (paper: ~7x)\n", stages[0].Seconds/stages[len(stages)-1].Seconds)
}

func fig6(m *perf.Model) {
	header("Fig. 6: wall clock per 50 as, RK4 vs PT-CN, Si" + itoa(m.Sys.Natom))
	fmt.Printf("%10s %12s %12s %10s\n", "GPUs", "RK4 (s)", "PT-CN (s)", "ratio")
	for _, p := range []int{36, 72, 144, 288, 384, 768} {
		rk4 := m.RK4StepTotal(p)
		pt := m.StepTotal(p)
		fmt.Printf("%10d %12.0f %12.1f %9.1fx\n", p, rk4, pt, rk4/pt)
	}
}

func fig7(m *perf.Model) {
	header("Fig. 7a: strong scaling of total time and components (MPI+memcpy included)")
	fmt.Printf("%10s %10s %10s %10s %10s %10s\n", "GPUs", "total", "HPsi", "residual", "Anderson", "others")
	for _, p := range perf.GPUCounts {
		b := m.SCF(p)
		fmt.Printf("%10d %10.1f %10.2f %10.2f %10.2f %10.2f\n",
			p, m.StepTotal(p), b.HPsiTotal, b.ResidTotal, b.AMTotal, b.Others)
	}
	header("Fig. 7b: strong scaling of computation-only components")
	fmt.Printf("%10s %12s %12s %12s %12s\n", "GPUs", "Fock comp", "residual", "Anderson", "density")
	for _, p := range perf.GPUCounts {
		b := m.SCF(p)
		fmt.Printf("%10d %12.3f %12.3f %12.3f %12.4f\n",
			p, b.FockComp, b.ResidComp, b.AMComp, b.DensityComp)
	}
}

func fig8() {
	header("Fig. 8: weak scaling, 48..1536 atoms, GPUs = Natom/2")
	natoms := []int{48, 96, 192, 384, 768, 1536}
	pts := perf.WeakScaling(natoms)
	fmt.Printf("%10s %8s %12s %14s %10s\n", "atoms", "GPUs", "time (s)", "ideal N^2 (s)", "exponent")
	for i, pt := range pts {
		exp := "-"
		if i > 0 {
			exp = fmt.Sprintf("%.2f", perf.GrowthExponent(pts[i-1], pt))
		}
		fmt.Printf("%10d %8d %12.2f %14.2f %10s\n", pt.Natom, pt.GPUs, pt.Time, pt.Ideal, exp)
	}
	fmt.Println("(paper reference point: Si192 on 96 GPUs = 16 s per 50 as, ~5 min/fs)")
}

func fig9(m *perf.Model) {
	header("Fig. 9: single SCF step component times")
	fmt.Printf("%10s %10s %10s %10s %10s %10s %10s\n", "GPUs", "HPsi", "residual", "density", "Anderson", "others", "per-SCF")
	for _, p := range []int{36, 72, 144, 288, 768} {
		b := m.SCF(p)
		fmt.Printf("%10d %10.2f %10.2f %10.3f %10.2f %10.2f %10.2f\n",
			p, b.HPsiTotal, b.ResidTotal, b.DensityTotal, b.AMTotal, b.Others, b.PerSCF)
	}
}

func fig10(m *perf.Model) {
	header("Fig. 10: strong scaling of MPI / memcpy / computation")
	fmt.Printf("%10s %10s %10s %12s %12s %12s %12s\n", "GPUs", "Bcast", "memcpy", "Alltoallv", "Allreduce", "compute", "MPI total")
	for _, p := range perf.GPUCounts {
		c := m.Comm(p)
		fmt.Printf("%10d %10.1f %10.1f %12.2f %12.2f %12.1f %12.1f\n",
			p, c.BcastTime, c.MemcpyTime, c.A2AVTime, c.AllreduceTime, c.ComputeTime, c.MPITotal)
	}
}

func power(m *perf.Model) {
	header("Section 6: equal-power CPU vs GPU comparison")
	cpuTime := m.CPUStepSeconds
	gpuTime := m.StepTotal(72)
	pc := m.M.ComparePower(3072, 72, cpuTime, gpuTime)
	fmt.Printf("CPU: %d cores on %d nodes  -> %8.0f W, %8.0f s/step\n", pc.CPUCores, pc.CPUNodes, pc.CPUPowerW, pc.CPUTimeS)
	fmt.Printf("GPU: %d V100 on %d nodes   -> %8.0f W, %8.1f s/step\n", pc.GPUs, pc.GPUNodes, pc.GPUPowerW, pc.GPUTimeS)
	fmt.Printf("speedup at comparable power: %.1fx (paper: 7x; GPU config draws slightly less)\n", pc.SpeedupAtEqualPower)
}

func flops(m *perf.Model) {
	header("Section 7: FLOP and efficiency analysis")
	fmt.Printf("FLOP per TDDFT step: %.3g (paper, via NVPROF: 3.87e16)\n", m.FLOPPerStep())
	fmt.Printf("%10s %14s %12s\n", "GPUs", "TFLOPS/GPU", "efficiency")
	for _, p := range perf.GPUCounts {
		eff := m.FLOPSEfficiency(p)
		fmt.Printf("%10d %14.3f %11.1f%%\n", p, eff*m.M.GPUPeakTFLOPS, eff*100)
	}
	fmt.Printf("Anderson history memory at 36 GPUs: %.1f GB/rank, %.0f GB/node (512 GB node)\n",
		m.MemoryPerRankGB(36, 20), 6*m.MemoryPerRankGB(36, 20))
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
