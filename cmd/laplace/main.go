// Command laplace runs the paper's heat-distribution benchmark (Section
// 7.2.2) standalone, in any of its variants, with optional protocol
// tracing.
//
//	laplace -cores 8 -model lazy -rows 256 -cols 128 -iters 100
//	laplace -cores 4 -model strong -trace        # plus a protocol summary
//	laplace -model ircce                         # the message-passing baseline
//
// The result is always verified bit-exactly against the serial reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on an argument list and two writers; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("laplace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 128, "grid rows (paper: 1024)")
	cols := fs.Int("cols", 128, "grid columns (paper: 512)")
	iters := fs.Int("iters", 100, "Jacobi iterations (paper: 5000)")
	cores := fs.Int("cores", 8, "number of cores (1..48)")
	model := fs.String("model", "lazy", "variant: strong | lazy | ircce")
	doTrace := fs.Bool("trace", false, "record and summarize protocol events")
	doStats := fs.Bool("stats", false, "print the run's metrics snapshot (cpu, cache, WCB, mesh, mailbox and SVM counters)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	p := laplace.Params{Rows: *rows, Cols: *cols, Iters: *iters, TopTemp: 100}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *cores < 1 || *cores > 48 {
		fmt.Fprintln(stderr, "laplace: cores must be 1..48")
		return 2
	}

	chipCfg := scc.DefaultConfig()
	chipCfg.PrivateMemPerCore = 24 << 20
	chipCfg.SharedMem = 16 << 20

	var tracer *trace.Buffer
	if *doTrace {
		tracer = trace.NewBuffer(1 << 18)
	}

	inst := core.Instrumentation{Metrics: *doStats}
	var res laplace.Result
	var obs *core.Observation
	switch *model {
	case "strong", "lazy":
		m := svm.Strong
		if *model == "lazy" {
			m = svm.LazyRelease
		}
		scfg := svm.DefaultConfig(m)
		machine, err := core.NewMachine(core.Options{
			Topology: &chipCfg,
			SVM:      &scfg,
			Members:  core.FirstN(*cores),
			Observe:  inst,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		machine.Chip.SetTracer(tracer)
		app := laplace.NewSVM(p, laplace.SVMOptions{})
		machine.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		res = app.Result()
		obs = machine.Observability()
	case "ircce":
		b, err := core.NewBaseline(&chipCfg, core.FirstN(*cores))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		b.Chip.SetTracer(tracer)
		obs = core.Observe(inst, b.Chip, nil, nil)
		app := laplace.NewBaseline(p, b.Comm)
		b.Run(func(rank int, c *cpu.Core) { app.Main(rank, c) })
		obs.Finish()
		res = app.Result()
	default:
		fmt.Fprintf(stderr, "laplace: unknown model %q\n", *model)
		return 2
	}

	fmt.Fprintf(stdout, "laplace %dx%d, %d iterations, %d cores, %s:\n",
		p.Rows, p.Cols, p.Iters, *cores, *model)
	fmt.Fprintf(stdout, "  simulated loop time: %.3f ms\n", res.Elapsed.Microseconds()/1000)
	if res.Faults > 0 {
		fmt.Fprintf(stdout, "  page faults:         %d\n", res.Faults)
	}
	want := laplace.ReferenceChecksum(p)
	status := "MATCHES serial reference bit-exactly"
	if res.Checksum != want {
		status = fmt.Sprintf("MISMATCH: %v, want %v", res.Checksum, want)
	}
	fmt.Fprintf(stdout, "  checksum:            %.6f (%s)\n", res.Checksum, status)
	if res.Checksum != want {
		return 1
	}

	if *doStats {
		fmt.Fprintln(stdout, "\nstatistics:")
		obs.MetricsSnapshot().WriteText(stdout)
	}
	if tracer != nil {
		fmt.Fprintln(stdout, "\nprotocol trace:")
		trace.WriteSummary(stdout, trace.Summarize(tracer.Events()))
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(stdout, "  (%d older events dropped from the ring)\n", d)
		}
	}
	return 0
}
