// Package machine describes the Summit supercomputer configuration of
// section 5 - node composition, peak rate and power draw - and provides
// the power-equivalence comparison of section 6.
package machine

// Summit holds the hardware constants of one Summit node that the model
// reads (section 5 and Fig. 5 of the paper).
type Summit struct {
	GPUsPerNode    int     // NVIDIA V100 per node
	SocketsPerNode int     // IBM POWER9 sockets
	CoresPerSocket int     // physical CPU cores
	GPUPeakTFLOPS  float64 // double precision peak per GPU
	GPUPowerW      float64 // per V100
	SocketPowerW   float64 // per POWER9 socket
}

// Default returns the configuration the paper reports.
func Default() Summit {
	return Summit{
		GPUsPerNode:    6,
		SocketsPerNode: 2,
		CoresPerSocket: 22,
		GPUPeakTFLOPS:  7.8,
		GPUPowerW:      300,
		SocketPowerW:   190,
	}
}

// GPUNodePowerW is the draw of a node with all GPUs active:
// 2 sockets + 6 V100 = 2180 W in the paper's accounting.
func (s Summit) GPUNodePowerW() float64 {
	return float64(s.SocketsPerNode)*s.SocketPowerW + float64(s.GPUsPerNode)*s.GPUPowerW
}

// CPUNodePowerW is the draw of a CPU-only node: 380 W.
func (s Summit) CPUNodePowerW() float64 {
	return float64(s.SocketsPerNode) * s.SocketPowerW
}

// NodesForGPUs returns the number of nodes hosting p GPUs (6 per node).
func (s Summit) NodesForGPUs(p int) int {
	return (p + s.GPUsPerNode - 1) / s.GPUsPerNode
}

// NodesForCores returns the number of nodes hosting n CPU cores.
func (s Summit) NodesForCores(n int) int {
	perNode := s.SocketsPerNode * s.CoresPerSocket
	return (n + perNode - 1) / perNode
}

// PowerComparison reproduces the section 6 equal-power argument: the CPU
// configuration (3072 cores = 73 nodes, 27,740 W) versus the 12-node GPU
// configuration (72 GPUs, 26,160 W).
type PowerComparison struct {
	CPUCores            int
	CPUNodes            int
	CPUPowerW           float64
	GPUs                int
	GPUNodes            int
	GPUPowerW           float64
	CPUTimeS            float64
	GPUTimeS            float64
	SpeedupAtEqualPower float64
}

// ComparePower evaluates the power-normalized comparison for the given
// configurations and measured/modelled wall-clock times.
func (s Summit) ComparePower(cpuCores, gpus int, cpuTime, gpuTime float64) PowerComparison {
	pc := PowerComparison{
		CPUCores: cpuCores,
		CPUNodes: s.NodesForCores(cpuCores),
		GPUs:     gpus,
		GPUNodes: s.NodesForGPUs(gpus),
		CPUTimeS: cpuTime,
		GPUTimeS: gpuTime,
	}
	pc.CPUPowerW = float64(pc.CPUNodes) * s.CPUNodePowerW()
	pc.GPUPowerW = float64(pc.GPUNodes) * s.GPUNodePowerW()
	if gpuTime > 0 {
		pc.SpeedupAtEqualPower = cpuTime / gpuTime
	}
	return pc
}
