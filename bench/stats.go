package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ptdft/internal/parallel"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is how the
// acceptance rule for this benchmark measures run-to-run spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// peakRSSMB reads VmHWM of this process (0 where /proc is absent).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "VmHWM:	   35012 kB"
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// fingerprint identifies the machine and build a result was taken on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MaxWorkers int    `json:"parallel_max_workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Timestamp  string `json:"timestamp"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MaxWorkers: parallel.MaxWorkers(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The go tool stamps the revision when it builds inside a git checkout;
	// an exported tree has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision" && len(kv.Value) >= 12:
				fp.Commit = kv.Value[:12]
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "+dirty"
			}
		}
		if fp.Commit != "unknown" {
			fp.Commit += dirty
		}
	}
	return fp
}

// comparable reports whether timings under two fingerprints may be
// compared: same CPU model, core count, GOMAXPROCS and Go version.
func (a fingerprint) comparable(b fingerprint) bool {
	return a.CPU == b.CPU && a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.GoVersion == b.GoVersion
}
