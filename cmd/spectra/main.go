// Command spectra computes an optical absorption spectrum from a
// delta-kick rt-TDDFT run - the classic linear-response workload the
// paper's introduction motivates (light absorption spectra): kick the
// system at t = 0 with a small uniform vector potential, record the
// macroscopic current, and Fourier-transform it into the dynamical
// conductivity.
//
//	spectra -ecut 4 -dt 12 -steps 200 -kick 0.005
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/trace"
	"ptdft/internal/units"
)

type config struct {
	spec      sim.Spec
	wmaxEV    float64
	nw        int
	eta       float64
	traceFile string
}

// parseFlags reads the command line into a run description and rejects the
// values the spectrum is undefined for, before any work is done.
func parseFlags(args []string) (*config, error) {
	c := &config{spec: sim.Spec{Cells: [3]int{1, 1, 1}, Seed: scf.Defaults().Seed}}
	fs := flag.NewFlagSet("spectra", flag.ContinueOnError)
	fs.Float64Var(&c.spec.Ecut, "ecut", 4, "kinetic energy cutoff (Ha)")
	fs.Float64Var(&c.spec.DtAs, "dt", 12, "PT-CN time step (as)")
	fs.IntVar(&c.spec.Steps, "steps", 120, "number of steps to record")
	fs.Float64Var(&c.spec.Kick, "kick", 0.005, "delta-kick amplitude (au)")
	fs.BoolVar(&c.spec.Hybrid, "hybrid", false, "use the hybrid functional")
	fs.Float64Var(&c.wmaxEV, "wmax", 15, "spectrum range (eV)")
	fs.IntVar(&c.nw, "nw", 150, "frequency points")
	fs.Float64Var(&c.eta, "eta", 0.005, "damping (au)")
	fs.StringVar(&c.traceFile, "tracefile", "", "record the propagation's span timeline and write it here as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case c.spec.Kick == 0:
		return nil, errors.New("-kick 0: the conductivity is the current divided by the kick; want a nonzero amplitude")
	case c.spec.Steps < 1:
		return nil, fmt.Errorf("-steps %d: want at least one recorded step", c.spec.Steps)
	case c.nw < 1:
		return nil, fmt.Errorf("-nw %d: want at least one frequency point", c.nw)
	}
	return c, c.spec.Validate()
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spectra:", err)
		os.Exit(2)
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(c *config) error {
	spec := &c.spec
	gs, err := sim.GroundState(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ground state E = %.6f Ha; propagating %d steps of %.1f as\n",
		gs.Energy.Total(), spec.Steps, spec.DtAs)

	var rec *trace.Recorder
	if c.traceFile != "" {
		rec = trace.NewRecorder()
	}
	res, err := sim.Run(spec, sim.Options{Ground: gs, Trace: rec, OnSample: func(s observe.Sample) {
		if s.Step%20 == 0 {
			fmt.Fprintf(os.Stderr, "  step %d/%d  t=%.3f fs  Jz=%.4e\n", s.Step, spec.Steps, s.TimeFs, s.CurrentZ)
		}
	}})
	if err != nil {
		return err
	}
	jz := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		jz[i] = s.CurrentZ
	}

	dt := units.AttosecondsToAU(spec.DtAs)
	// Sample i was recorded after step i+1, i.e. at t = (i+1)*dt: pass
	// t0 = dt so the transform phases every sample at its true time.
	omegas, sigma := observe.AbsorptionSpectrum(jz, dt, dt, spec.Kick, c.wmaxEV/units.EVPerHartree, c.nw, c.eta)
	fmt.Println("# omega_eV  Re_sigma(arb)")
	for i := range omegas {
		fmt.Printf("%10.4f %14.6e\n", omegas[i]*units.EVPerHartree, sigma[i])
	}
	if rec != nil {
		if err := rec.WriteChromeTraceFile(c.traceFile); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (Chrome trace-event JSON)\n", c.traceFile)
	}
	return nil
}
