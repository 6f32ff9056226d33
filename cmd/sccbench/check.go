package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/bench/runner"
	"metalsvm/internal/core"
	"metalsvm/internal/profile"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/sancheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// checkScale sizes the cells of -check and -sanitize: the checkers need
// every protocol path, not the figures' lengths. The Laplace application
// cell runs ten iterations so every barrier and ownership round recurs.
var checkScale = sizes{rounds: 50, iters: 2, pollers: 8,
	grid: laplace.Params{Rows: 32, Cols: 32, Iters: 10, TopTemp: 100}}

// findings is a checker's verdict on one run, as -check and -sanitize
// print it.
type findings struct {
	kind     string // what the checker reports: RACES or FINDINGS
	reported int
	dynamic  uint64
	report   func(io.Writer)
}

// raceFindings and sanFindings read the two checkers of an observation.
func raceFindings(o *core.Observation) findings {
	k := o.Race()
	return findings{"RACES", len(k.Races()), k.Dynamic(), k.Report}
}

func sanFindings(o *core.Observation) findings {
	k := o.San()
	return findings{"FINDINGS", len(k.Findings()), k.Dynamic(), k.Report}
}

// verdict prints one checked run's line and reports whether it was clean.
func verdict(out io.Writer, label string, f findings) bool {
	if f.dynamic == 0 {
		fmt.Fprintf(out, "  %s  ok (%d reported, %d observed)\n", label, f.reported, f.dynamic)
		return true
	}
	fmt.Fprintf(out, "  %s  %s: %d observation(s)\n", label, f.kind, f.dynamic)
	f.report(out)
	return false
}

// job is one independent checked simulation writing its report into its
// own buffer.
type job func(io.Writer) bool

// runJobs fans the jobs across the host pool (GOMAXPROCS wide) and prints
// their buffers in job order, so the output is identical at any width. It
// reports whether every job passed.
func runJobs(jobs []job) bool {
	outs := make([]bytes.Buffer, len(jobs))
	oks := make([]bool, len(jobs))
	runner.Run(len(jobs), func(i int) { oks[i] = jobs[i](&outs[i]) })
	ok := true
	for i := range jobs {
		os.Stdout.Write(outs[i].Bytes())
		ok = ok && oks[i]
	}
	return ok
}

// checkedCells builds the jobs of a checking mode: every application cell
// of the table under both consistency models on the mode's member set,
// then (with harness set) every harness cell once. inst wires the mode's
// checker and read extracts its verdict. A non-nil topo runs the
// application cells on that machine with a small chip-spanning member set
// (see smokeMembers) instead of 8 cores of the paper chip.
func checkedCells(m mode, topo *scc.Config, inst core.Instrumentation, read func(*core.Observation) findings, harness bool) []job {
	members := core.FirstN(8)
	if topo != nil {
		members = smokeMembers(*topo)
	}
	var jobs []job
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, c := range enumerate(m, topo) {
			if c.modes&modeRace == 0 {
				continue
			}
			c, x := c, trial{sizes: checkScale, model: model,
				opts: core.Options{Topology: topo, Members: members, Observe: inst}}
			jobs = append(jobs, func(out io.Writer) bool {
				return checkedRun(out, fmt.Sprintf("%-9s under %-12v", c.name, model), c, x, read)
			})
		}
	}
	if !harness {
		return jobs
	}
	for _, c := range enumerate(m, topo) {
		if c.modes&modeRace != 0 {
			continue
		}
		c, x := c, trial{sizes: checkScale, model: svm.Strong, opts: core.Options{Topology: topo, Observe: inst}}
		jobs = append(jobs, func(out io.Writer) bool {
			return checkedRun(out, fmt.Sprintf("%-9s harness      ", c.name), c, x, read)
		})
	}
	return jobs
}

// checkedRun runs one cell with a checker wired in: the run must be clean
// and its record must pass the cell's acceptance check.
func checkedRun(out io.Writer, label string, c *cell, x trial, read func(*core.Observation) findings) bool {
	r := c.run(x)
	ok := verdict(out, label, read(r.Obs))
	if err := c.accept(x, r); err != nil {
		fmt.Fprintf(out, "  %s  WRONG: %v\n", label, err)
		return false
	}
	return ok
}

// runCheck executes the application cells under both consistency models
// with the happens-before race checker enabled, then (on the paper chip)
// the two-domain cell and the zero-perturbation cells, and reports the
// verdicts. It returns false if any workload raced or any check failed.
func runCheck(topo *scc.Config) bool {
	fmt.Println("racecheck: happens-before analysis of the shipped workloads")
	if topo != nil {
		fmt.Printf("racecheck: %d chip(s), %d cores activated\n", topo.Normalized().Chips, len(smokeMembers(*topo)))
	}
	jobs := checkedCells(modeRace, topo, core.Instrumentation{Race: &racecheck.Config{}}, raceFindings, false)
	if topo == nil {
		jobs = append(jobs, checkDomains, checkPerturbation)
	}
	ok := runJobs(jobs)
	if ok {
		fmt.Println("racecheck: all workloads race-free")
	}
	return ok
}

// runSanitize executes the application cells under both consistency models
// with the sanitizer suite enabled — shadow memory over the SVM window,
// Eraser-style locksets and the lock-order graph — then the mailbox harness
// cells (fig6/fig7), proving the hooks stay quiet on non-SVM traffic, and
// reports the verdicts. It returns false if any cell reported a finding.
func runSanitize(topo *scc.Config) bool {
	fmt.Println("sancheck: shadow-memory, lockset and lock-order analysis of the shipped workloads")
	if topo != nil {
		fmt.Printf("sancheck: %d chip(s), %d cores activated\n", topo.Normalized().Chips, len(smokeMembers(*topo)))
	}
	ok := runJobs(checkedCells(modeSanitize, topo, core.Instrumentation{Sanitize: &sancheck.Config{}}, sanFindings, true))
	if ok {
		fmt.Println("sancheck: all workloads clean")
	}
	return ok
}

// checkDomains runs barrier-ordered traffic in two independent coherency
// domains under one chip-wide checker.
func checkDomains(out io.Writer) bool {
	ds, err := core.NewDomains(nil, []core.DomainSpec{
		{Members: []int{0, 1, 2, 3}},
		{Members: []int{24, 25, 30, 31}},
	})
	if err != nil {
		fmt.Fprintf(out, "racecheck: domains: %v\n", err)
		return false
	}
	obs := ds.Observe(core.Instrumentation{Race: &racecheck.Config{}})
	first := []int{0, 24}
	ds.RunAll(func(domain int, env *core.Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == first[domain] {
			env.Core().Store64(base, uint64(domain+1))
		}
		env.SVM.Barrier()
		env.Core().Load64(base)
	})
	return verdict(out, "domains  (2 independent)  ", raceFindings(obs))
}

// checkPerturbation enforces the observability contract on every harness
// cell of the paper chip: a run with tracing, race checking, the sanitizer
// suite, metrics and the profiler all enabled must reproduce the plain
// record bit for bit.
func checkPerturbation(out io.Writer) bool {
	ok := true
	for _, c := range enumerate(modePerturb, nil) {
		x := trial{sizes: checkScale, model: svm.Strong}
		plain := c.run(x)
		px := x
		px.opts.Observe = core.Instrumentation{
			TraceCapacity: 1 << 14,
			Race:          &racecheck.Config{},
			Sanitize:      &sancheck.Config{},
			Metrics:       true,
			Profile:       &profile.Config{},
		}
		observed := c.run(px)
		switch err := c.accept(x, plain); {
		case err != nil:
			fmt.Fprintf(out, "  zero-perturbation %-8s  FAILED: %v\n", c.name, err)
			ok = false
		case !plain.Same(observed):
			fmt.Fprintf(out, "  zero-perturbation %-8s  FAILED:\n    plain    = %+v\n    observed = %+v\n",
				c.name, plain, observed)
			ok = false
		default:
			fmt.Fprintf(out, "  zero-perturbation %-8s  ok (instrumented run bit-identical)\n", c.name)
		}
	}
	return ok
}
