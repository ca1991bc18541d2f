package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ptdft/internal/checkpoint"
	"ptdft/internal/core"
	"ptdft/internal/dist"
	"ptdft/internal/fock"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/lanes"
	"ptdft/internal/laser"
	"ptdft/internal/linalg"
	"ptdft/internal/mixing"
	"ptdft/internal/mpi"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/units"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// Probes time calls into a layer's public functions on the workload's own
// ground state, from outside the program. Which probes run follows from
// the spec (hybrid, ACE, ranks), never from the workload's name; a layer
// the spec does not exercise reports 0.

const (
	probeWarm  = 3
	probeCalls = 20
	stepWarm   = 1 // whole PT-CN steps are two orders dearer than kernels
	stepCalls  = 8 // two MTS cycles
)

// timeN returns the median time in seconds of n calls after warm untimed
// ones. The counts are fixed so that collective probes stay in lockstep.
func timeN(warm, n int, f func()) float64 {
	for i := 0; i < warm; i++ {
		f()
	}
	ts := make([]float64, n)
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = time.Since(t).Seconds()
	}
	return median(ts)
}

// hse is the hybrid parameter set sim.Run uses.
var hse = xc.HSE06()

// probes runs on what set-up left behind: the spec, its grid and its
// ground state.
type probes struct {
	*solverState
	tmp string // directory for the checkpoint probe
}

func (p *probes) field() laser.Field {
	if p.spec.PulseE0 != 0 {
		sigma := units.AttosecondsToAU(p.spec.DtAs) * float64(p.spec.Steps) / 4
		return laser.New380nm(p.spec.PulseE0, 2*sigma, sigma)
	}
	return &laser.Kick{K: p.spec.Kick, Pol: [3]float64{0, 0, 1}}
}

func (p *probes) run(r *result) error {
	// Serial-layer probes are the plain single-threaded baseline whatever
	// -procs says; the step probes below keep the run's worker count, which
	// is what the measured segments ran with.
	workers := parallel.SetMaxWorkers(1)
	p.kernels(r)
	var err error
	if p.spec.Hybrid {
		err = p.exchange(r)
	}
	parallel.SetMaxWorkers(workers)
	if err != nil {
		return err
	}
	if p.spec.Ranks > 1 {
		if err := p.distributed(r); err != nil {
			return err
		}
	} else if err := p.serialStep(r); err != nil {
		return err
	}
	return p.checkpoint(r)
}

// kernels probes the layers every workload uses.
func (p *probes) kernels(r *result) {
	g, nb, psi, rho := p.g, p.nb, p.gs.Psi, p.gs.Rho
	ms := func(name string, f func()) { r.set(name, timeN(probeWarm, probeCalls, f)*1e3) }
	us := func(name string, f func()) { r.set(name, timeN(probeWarm, probeCalls, f)*1e6) }

	ms("potential.density_ms", func() { potential.Density(g, psi, nb, 2) })
	h := hamiltonian.New(g, p.spec.Pots(), hamiltonian.Config{})
	ms("potential.scfpot_ms", func() { potential.SCFPotential(g, rho, h.VlocDense(), 1) })
	h.UpdatePotential(rho)
	out := make([]complex128, nb*g.NG)
	ms("hamiltonian.apply_semilocal_ms", func() { h.Apply(out, psi, nb) })

	hw := hamiltonian.New(g, p.spec.Pots(), hamiltonian.Config{Hybrid: p.spec.Hybrid, UseACE: p.spec.ACE, Params: hse})
	hw.UpdatePotential(rho)
	hw.SetFockOrbitals(psi, nb)
	ms("hamiltonian.energy_ms", func() { hw.TotalEnergy(psi, nb, 2) })

	wave := make([]complex128, g.NTot)
	g.ToRealSerial(wave, psi[:g.NG])
	ws := g.Plan.NewWorkspace()
	us("fourier.fft3_wave_us", func() {
		g.Plan.ApplySerialWS(wave, wave, false, ws)
		g.Plan.ApplySerialWS(wave, wave, true, ws)
	})
	dense := make([]complex128, g.NDTot)
	for i, v := range rho {
		dense[i] = complex(v, 0)
	}
	wsd := g.PlanD.NewWorkspace()
	us("fourier.fft3_dense_us", func() {
		g.PlanD.ApplySerialWS(dense, dense, false, wsd)
		g.PlanD.ApplySerialWS(dense, dense, true, wsd)
	})

	s := make([]complex128, nb*nb)
	ms("linalg.overlap_ms", func() { linalg.Overlap(s, psi, psi, nb, nb, g.NG) })
	// Not wavefunc.Orthonormalize on a fresh copy each call: the copy is
	// not part of the layer. Psi is already orthonormal, so repeating the
	// three calls in place leaves it unchanged to round-off.
	work := wavefunc.Clone(psi)
	ms("linalg.orthonormalize_ms", func() {
		linalg.Overlap(s, work, work, nb, nb, g.NG)
		if err := linalg.CholeskyLower(s, nb); err != nil {
			panic(err) // an orthonormal set has a positive definite overlap
		}
		linalg.SolveLowerBands(s, work, nb, g.NG)
	})

	// Full history: MixHistory calls fill it, the timed calls run against
	// it. Residuals are distinct random vectors so the least-squares
	// system keeps full rank, as in a converging SCF.
	opt := core.DefaultPTCN()
	rng := rand.New(rand.NewSource(1))
	fs := make([][]complex128, opt.MixHistory+4)
	for k := range fs {
		fs[k] = make([]complex128, len(psi))
		for i := range fs[k] {
			fs[k][i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
		}
	}
	bm := mixing.NewBandMixer(nb, g.NG, opt.MixHistory, opt.MixBeta)
	k := 0
	x := psi
	mix := timeN(opt.MixHistory, probeCalls, func() {
		x = bm.Mix(x, fs[k%len(fs)])
		k++
	})
	r.set("mixing.bandmix_ms", mix*1e3)
}

// exchange probes the serial Fock layer (hybrid workloads).
func (p *probes) exchange(r *result) error {
	g, nb, psi, rho := p.g, p.nb, p.gs.Psi, p.gs.Rho
	ms := func(name string, f func()) { r.set(name, timeN(probeWarm, probeCalls, f)*1e3) }

	h := hamiltonian.New(g, p.spec.Pots(), hamiltonian.Config{Hybrid: true, Params: hse})
	h.UpdatePotential(rho)
	h.SetFockOrbitals(psi, nb)
	out := make([]complex128, nb*g.NG)
	ms("hamiltonian.apply_hybrid_ms", func() { h.Apply(out, psi, nb) })

	op := fock.NewOperator(g, hse, psi, nb)
	// A band set that is not the operator's reference takes the generic
	// nb^2 path; the reference itself takes the symmetric one.
	other := wavefunc.Random(g, nb, 7)
	ms("fock.apply_ms", func() { op.Apply(out, other, nb) })
	ms("fock.apply_ref_ms", func() { op.ApplyToReference(out) })

	kernel := fock.BuildKernel(g, hse)
	buf := lanes.New(g.NTot)
	ws := g.Plan.NewWorkspace()
	g.ToRealSlabWS(buf, psi[:g.NG], ws)
	r.set("fourier.poisson_slab_us", timeN(probeWarm, probeCalls, func() { g.Plan.PoissonSlabWS(buf, kernel, ws) })*1e6)

	if !p.spec.ACE {
		return nil
	}
	var ace *fock.ACE
	var aceErr error
	ms("fock.ace_build_ms", func() {
		if a, err := fock.NewACE(op, psi, nb); err != nil {
			aceErr = err
		} else {
			ace = a
		}
	})
	if aceErr != nil {
		return fmt.Errorf("probe fock.NewACE: %w", aceErr)
	}
	ms("fock.ace_apply_ms", func() { ace.Apply(out, psi, nb) })
	ha := hamiltonian.New(g, p.spec.Pots(), hamiltonian.Config{Hybrid: true, UseACE: true, Params: hse})
	ha.UpdatePotential(rho)
	ha.SetFockOrbitals(psi, nb)
	ms("hamiltonian.apply_ace_ms", func() { ha.Apply(out, psi, nb) })
	return nil
}

// serialStep times core.PTCN.Step without the sim loop around it.
func (p *probes) serialStep(r *result) error {
	h := hamiltonian.New(p.g, p.spec.Pots(), hamiltonian.Config{Hybrid: p.spec.Hybrid, UseACE: p.spec.ACE, Params: hse})
	sys := &core.System{G: p.g, H: h, NB: p.nb, Occ: 2, Field: p.field()}
	pt := core.NewPTCN(sys, core.DefaultPTCN())
	pt.MTS = p.spec.MTS
	psi := wavefunc.Clone(p.gs.Psi)
	dt := units.AttosecondsToAU(p.spec.DtAs)
	var stepErr error
	sec := timeN(stepWarm, stepCalls, func() {
		if stepErr != nil {
			return
		}
		psi, _, stepErr = pt.Step(psi, dt)
	})
	if stepErr != nil {
		return fmt.Errorf("probe core.PTCN.Step: %w", stepErr)
	}
	r.set("core.step_ms", sec*1e3)
	return nil
}

// distributed probes the dist and mpi layers in one world of the
// workload's rank count. Every rank runs the same fixed sequence of
// collectives; rank 0 holds the clock.
func (p *probes) distributed(r *result) error {
	g, nb, psi := p.g, p.nb, p.gs.Psi
	strategy, err := p.spec.ExchangeStrategy()
	if err != nil {
		return err
	}
	exOpt := dist.ExchangeOptions{Strategy: strategy, SinglePrecision: p.spec.SinglePrec, ACE: p.spec.ACE, MTSPeriod: p.spec.MTS}
	dt := units.AttosecondsToAU(p.spec.DtAs)
	field := p.field()
	var firstErr error
	mpi.Run(p.spec.Ranks, func(c *mpi.Comm) {
		fail := func(err error) {
			if c.Rank() == 0 && firstErr == nil {
				firstErr = err
			}
		}
		// timed is timeN with the ranks lined up before every call.
		timed := func(name string, warm, n int, scale float64, f func()) {
			sec := timeN(warm, n, func() {
				c.Barrier()
				f()
			})
			if c.Rank() == 0 {
				r.set(name, sec*scale)
			}
		}
		d, err := dist.NewCtx(c, g, nb, 2)
		if err != nil {
			fail(err)
			return
		}
		lo, hi := d.BandRange(c.Rank())
		local := wavefunc.Clone(psi[lo*g.NG : hi*g.NG])

		m := make([]complex128, nb*nb)
		timed("mpi.allreduce_us", probeWarm, probeCalls, 1e6, func() { mpi.AllreduceSum(c, 9100, m) })
		orbital := make([]complex128, g.NTot)
		timed("mpi.bcast_us", probeWarm, probeCalls, 1e6, func() { mpi.Bcast(c, 0, 9102, orbital) })
		send := make([][]complex128, c.Size())
		for q := range send {
			qlo, qhi := d.GRange(q)
			send[q] = make([]complex128, d.NumLocalBands()*(qhi-qlo))
		}
		timed("mpi.alltoallv_us", probeWarm, probeCalls, 1e6, func() { mpi.Alltoallv(c, 9103, send) })

		tw := d.NewTransposeWorkspace()
		gd := make([]complex128, nb*d.NumLocalG())
		back := make([]complex128, len(local))
		timed("dist.transpose_ms", probeWarm, probeCalls, 1e3, func() {
			d.BandToGWS(gd, local, false, tw)
			d.GToBandWS(back, gd, false, tw)
		})

		if p.spec.Hybrid {
			kernel := fock.BuildKernel(g, hse)
			ex := d.NewExchangeWorkspace()
			timed("dist.exchange_ms", probeWarm, probeCalls, 1e3, func() {
				d.FockExchangeWS(local, local, kernel, hse.Alpha, exOpt, ex)
			})
			if p.spec.ACE {
				ace := d.NewACE()
				timed("dist.ace_rebuild_ms", probeWarm, probeCalls, 1e3, func() {
					// A degenerate reference fails on every rank alike.
					if err := ace.Rebuild(local, nil, kernel, hse.Alpha, exOpt, ex); err != nil {
						fail(err)
					}
				})
				dst := make([]complex128, len(local))
				timed("dist.ace_apply_ms", probeWarm, probeCalls, 1e3, func() { ace.Apply(dst, local) })
			}
		}

		h := hamiltonian.New(g, p.spec.Pots(), hamiltonian.Config{})
		s := dist.NewPTCNSolver(d, h, hse, p.spec.Hybrid, field, core.DefaultPTCN(), exOpt)
		var stepErr error
		timed("dist.step_ms", stepWarm, stepCalls, 1e3, func() {
			// Convergence is decided on the global density, so every rank
			// sees the same error and skips the same remaining calls.
			if stepErr != nil {
				return
			}
			local, _, stepErr = s.Step(local, dt)
		})
		if stepErr != nil {
			fail(fmt.Errorf("probe dist.PTCNSolver.Step: %w", stepErr))
		}
	})
	return firstErr
}

// checkpoint probes durable save and load of the workload's state.
func (p *probes) checkpoint(r *result) error {
	dir, err := os.MkdirTemp(p.tmp, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.ckp")
	st := &checkpoint.State{
		Time: 1, Step: 1, NBands: p.nb, NG: p.g.NG, Natom: int64(p.g.Cell.NumAtoms()),
		Ecut: p.spec.Ecut, Hybrid: p.spec.Hybrid, Psi: p.gs.Psi,
	}
	var ioErr error
	r.set("checkpoint.save_ms", timeN(probeWarm, probeCalls, func() {
		if err := checkpoint.SaveFile(path, st); err != nil {
			ioErr = err
		}
	})*1e3)
	r.set("checkpoint.load_ms", timeN(probeWarm, probeCalls, func() {
		if _, err := checkpoint.LoadFile(path); err != nil {
			ioErr = err
		}
	})*1e3)
	if ioErr != nil {
		return fmt.Errorf("probe checkpoint: %w", ioErr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("checkpoint.bytes", float64(fi.Size()))
	return nil
}
