package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// chaosDumpFile receives the diagnostic dump when a chaos cell fails.
const chaosDumpFile = "chaos-dump.txt"

// chaosCellJSON is one cell of the -chaos -json summary. Faults carries the
// per-route injection counts (drops, dups, delays, corruptions keyed by
// route name), so a schedule's footprint is visible per cell.
type chaosCellJSON struct {
	Name           string                       `json:"name"`
	OK             bool                         `json:"ok"`
	Err            string                       `json:"err,omitempty"`
	US             float64                      `json:"us,omitempty"`
	Injected       uint64                       `json:"injected,omitempty"`
	Crashes        uint64                       `json:"crashes,omitempty"`
	PartitionDrops uint64                       `json:"partition_drops,omitempty"`
	Faults         map[string]faults.RouteStats `json:"faults,omitempty"`
}

// chaosJSON is the -chaos -json payload.
type chaosJSON struct {
	Seed     uint64          `json:"seed"`
	Schedule string          `json:"schedule"`
	OK       bool            `json:"ok"`
	Cells    []chaosCellJSON `json:"cells"`
}

// runChaos is the chaos harness: it reruns the chaos cells of the table
// under a deterministic fault schedule and verifies that the hardened
// protocols recover — the measurements complete, the applications compute
// bit-exact results, the recovery counters show the faults were real, and
// an identical seed replays bit-identically. On failure it writes the
// diagnostic dump to chaos-dump.txt and returns a nonzero exit code. A
// non-nil topo runs the topology-aware cells on that machine with a small
// chip-spanning member set (see smokeMembers), putting the inter-chip link
// under the same fault schedule; the crash suite then uses the topology's
// default worker split. jsonOut replaces the table with a machine-readable
// summary that carries each cell's per-route fault counts.
func runChaos(arg string, rounds, iters int, topo *scc.Config, jsonOut bool) int {
	fc, err := faults.ParseConfig(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v (presets: %s)\n", err, strings.Join(faults.Presets(), ", "))
		return 2
	}
	summary := chaosJSON{Seed: fc.Seed, Schedule: chaosSpecName(arg), OK: true}
	say := func(format string, args ...any) {
		if !jsonOut {
			fmt.Printf(format, args...)
		}
	}
	say("chaos: seed %d, schedule %q\n", fc.Seed, chaosSpecName(arg))
	members := core.FirstN(4)
	if topo != nil {
		members = smokeMembers(*topo)
		say("chaos: %d chip(s), %d cores\n", topo.Normalized().Chips, len(members))
	}

	var dump strings.Builder
	record := func(cell chaosCellJSON) {
		summary.Cells = append(summary.Cells, cell)
		summary.OK = summary.OK && cell.OK
	}
	fail := func(name string, err error, r bench.Record) {
		say("  %-16s FAILED: %v\n", name, err)
		fmt.Fprintf(&dump, "=== %s: %v\n", name, err)
		if !r.Completed {
			fmt.Fprintln(&dump, r.Watchdog)
		}
		record(chaosCellJSON{Name: name, Err: err.Error()})
	}
	// The chaos sweep's Laplace needs shape, not the full figure.
	sc := sizes{rounds: rounds, iters: iters, pollers: 8,
		grid: laplace.Params{Rows: 64, Cols: 32, Iters: min(iters, 50), TopTemp: 100}}
	for _, c := range enumerate(modeChaos, topo) {
		if c.armed != nil && !c.armed(&fc) {
			continue
		}
		models := c.chaos
		if models == nil {
			models = []svm.Model{svm.Strong}
		}
		at := func(model svm.Model) trial {
			return trial{sizes: sc, model: model, opts: core.Options{Topology: topo, Members: members, Faults: &fc}}
		}
		var first bench.Record
		for i, model := range models {
			x := at(model)
			name := c.name
			switch {
			case c.label != "":
				name += " " + c.label
			case c.chaos != nil:
				name += " " + model.String()
			}
			r := c.run(x)
			if i == 0 {
				first = r
			}
			if err := c.accept(x, r); err != nil {
				fail(name, err, r)
				continue
			}
			detail := fmt.Sprintf("%d injected, %d retx, %d renudge, %d corrupt, %d dup, %d rescues",
				r.Faults.Injected(), r.Mailbox.Retransmits, r.Mailbox.Renudges,
				r.Mailbox.CorruptDrops, r.Mailbox.DupFrames, r.Rescues)
			if c.detail != nil {
				detail = c.detail(r)
			}
			say("  %-16s %10.3f us   ok (%s)\n", name, r.US, detail)
			record(chaosCellJSON{
				Name: name, OK: true, US: r.US,
				Injected:       r.Faults.Injected(),
				Crashes:        r.Faults.Crashes,
				PartitionDrops: r.Faults.PartitionDrops,
				Faults:         r.Faults.PerRoute(),
			})
		}
		if !c.replay {
			continue
		}
		name := c.name + " replay"
		if again := c.run(at(models[0])); !again.Same(first) {
			fail(name, fmt.Errorf("same seed diverged: %.3f us/%v vs %.3f us/%v",
				first.US, first.Sum, again.US, again.Sum), again)
		} else {
			say("  %-16s %10s      ok (bit-identical)\n", name, "")
			record(chaosCellJSON{Name: name, OK: true})
		}
	}

	if jsonOut {
		out, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if !summary.OK {
		fmt.Fprintf(&dump, "\nchaos: seed %d schedule %q rounds %d iters %d\n",
			fc.Seed, chaosSpecName(arg), rounds, iters)
		if err := os.WriteFile(chaosDumpFile, []byte(dump.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: writing %s: %v\n", chaosDumpFile, err)
		} else {
			say("chaos: diagnostic dump written to %s\n", chaosDumpFile)
		}
		return 1
	}
	say("chaos: all cells recovered; application results bit-exact\n")
	return 0
}

// chaosSpecName extracts the schedule name from a seed[,spec] argument.
func chaosSpecName(arg string) string {
	if i := strings.IndexByte(arg, ','); i >= 0 {
		return arg[i+1:]
	}
	return "mixed"
}
