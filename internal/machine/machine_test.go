package machine

import (
	"math"
	"testing"
)

func TestNodePower(t *testing.T) {
	s := Default()
	// Section 6: GPU node = 2x190 + 6x300 = 2180 W, CPU node = 380 W.
	if got := s.GPUNodePowerW(); got != 2180 {
		t.Errorf("GPU node power %g, want 2180", got)
	}
	if got := s.CPUNodePowerW(); got != 380 {
		t.Errorf("CPU node power %g, want 380", got)
	}
}

func TestPaperPowerNumbers(t *testing.T) {
	s := Default()
	// 73 CPU nodes at 380 W = 27740 W; 12 GPU nodes at 2180 W = 26160 W.
	if got := 73 * s.CPUNodePowerW(); got != 27740 {
		t.Errorf("73 CPU nodes = %g W, paper reports 27740", got)
	}
	if got := 12 * s.GPUNodePowerW(); got != 26160 {
		t.Errorf("12 GPU nodes = %g W, paper reports 26160", got)
	}
}

func TestNodesForGPUs(t *testing.T) {
	s := Default()
	cases := map[int]int{6: 1, 36: 6, 72: 12, 768: 128, 3072: 512, 7: 2}
	for gpus, nodes := range cases {
		if got := s.NodesForGPUs(gpus); got != nodes {
			t.Errorf("NodesForGPUs(%d) = %d, want %d", gpus, got, nodes)
		}
	}
}

func TestNodesForCores(t *testing.T) {
	s := Default()
	// 44 cores per node; 3072 cores -> 70 nodes by division.
	if got := s.NodesForCores(3072); got != 70 {
		t.Errorf("NodesForCores(3072) = %d, want 70", got)
	}
	if got := s.NodesForCores(44); got != 1 {
		t.Errorf("NodesForCores(44) = %d, want 1", got)
	}
}

func TestComparePower(t *testing.T) {
	s := Default()
	pc := s.ComparePower(3072, 72, 8874, 1269.1)
	if pc.GPUNodes != 12 {
		t.Errorf("GPU nodes %d, want 12", pc.GPUNodes)
	}
	if pc.GPUPowerW != 26160 {
		t.Errorf("GPU power %g, want 26160", pc.GPUPowerW)
	}
	// Table 1: 7.0x at 72 GPUs.
	if math.Abs(pc.SpeedupAtEqualPower-6.99) > 0.05 {
		t.Errorf("speedup %g, want ~7.0", pc.SpeedupAtEqualPower)
	}
}

func TestHardwareConstants(t *testing.T) {
	s := Default()
	if s.GPUPeakTFLOPS != 7.8 {
		t.Error("V100 peak does not match section 5")
	}
	if s.CoresPerSocket != 22 {
		t.Error("POWER9 has 22 physical cores per socket")
	}
}
