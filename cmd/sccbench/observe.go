package main

import (
	"fmt"
	"os"
	"strings"

	"metalsvm/internal/core"
	"metalsvm/internal/profile"
	"metalsvm/internal/svm"
)

// observeConfig selects the instrumentation surfaces requested on the
// command line (-metrics, -profile, -perfetto).
type observeConfig struct {
	metrics  bool
	profile  bool
	perfetto string // output path; "" is off
}

func (oc observeConfig) enabled() bool {
	return oc.metrics || oc.profile || oc.perfetto != ""
}

// instrumentation translates the flags into an Instrumentation. A Perfetto
// export implies the profiler (timeline spans) and tracing (protocol
// instants and flow arrows).
func (oc observeConfig) instrumentation() core.Instrumentation {
	inst := core.Instrumentation{Metrics: oc.metrics}
	if oc.profile || oc.perfetto != "" {
		inst.Profile = &profile.Config{}
	}
	if oc.perfetto != "" {
		inst.TraceCapacity = 1 << 16
	}
	return inst
}

// runObserve runs one instrumented cell per selected observe cell of the
// table and renders the requested artifacts. The instrumented runs are
// bit-identical to the plain harness cells (enforced by -check), so the
// profiles and metrics describe exactly the runs the tables report.
func runObserve(cmd string, rounds, iters int, oc observeConfig) int {
	selected := enumerate(modeObserve, nil)
	if cmd != "all" {
		var one []*cell
		for _, c := range selected {
			if c.name == cmd {
				one = append(one, c)
			}
		}
		if one == nil {
			fmt.Fprintf(os.Stderr, "sccbench: -metrics/-profile/-perfetto support %s|all, not %q\n",
				names(selected, "|"), cmd)
			return 2
		}
		selected = one
	}

	for i, c := range selected {
		if i > 0 {
			fmt.Println()
		}
		x := trial{sizes: sizes{rounds: rounds, iters: iters, pollers: 48}, model: svm.Strong,
			opts: core.Options{Observe: oc.instrumentation()}}
		r := c.run(x)
		fmt.Printf("%s: %s\n", c.name, c.describe(x, r))
		if oc.metrics {
			fmt.Println("metrics:")
			r.Obs.MetricsSnapshot().WriteText(os.Stdout)
		}
		if oc.profile {
			fmt.Println("simulated-time profile:")
			r.Obs.ProfileReport().WriteText(os.Stdout)
		}
		if oc.perfetto != "" {
			path := oc.perfetto
			if len(selected) > 1 {
				path = suffixPath(path, c.name)
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
				return 1
			}
			err = r.Obs.WritePerfetto(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
				return 1
			}
			fmt.Printf("perfetto trace written to %s (load at ui.perfetto.dev)\n", path)
		}
	}
	return 0
}

// suffixPath inserts "-name" before the path's extension:
// out.json -> out-fig6.json.
func suffixPath(path, name string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "-" + name + path[i:]
	}
	return path + "-" + name
}
