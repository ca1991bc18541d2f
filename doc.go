// Package ptdft is a Go reproduction of "Parallel Transport Time-Dependent
// Density Functional Theory Calculations with Hybrid Functional on Summit"
// (Jia, Wang, Lin; SC'19, arXiv:1905.01348).
//
// The library implements the paper's primary contribution - real-time TDDFT
// in the parallel transport gauge with the implicit PT-CN integrator and a
// screened-exchange hybrid functional - together with every substrate it
// rests on: a plane-wave Kohn-Sham solver (FFTs, pseudopotentials,
// Hartree/XC, LOBPCG ground state), the distributed implementation of the
// paper's section 3 (band-index / G-space hybrid parallelization,
// broadcast, pair-symmetric Fock exchange) on a goroutine
// message-passing runtime, and a calibrated Summit performance model that
// regenerates the paper's Tables 1-2 and Figures 3, 6-10 (single-precision
// MPI among its ablations).
//
// Entry points:
//
//	cmd/ptdft      - run ground state + rt-TDDFT on silicon supercells
//	cmd/summitsim  - regenerate every table/figure of the evaluation
//	examples/...   - three runnable walkthroughs
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-reproduction record.
package ptdft
