package main

import (
	"errors"
	"fmt"
	"strings"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// mode is one sccbench mode that runs cells of the table (a bit set in
// cell.modes).
type mode uint8

const (
	// modeRace is the first half of -check: the happens-before race
	// checker over the application cells. The cells carrying it are the
	// application cells: -check and -sanitize run them under both
	// consistency models on the mode's member set.
	modeRace mode = 1 << iota
	// modePerturb is the second half of -check: each harness cell run
	// plain and under its perturbing modifiers must agree bit for bit.
	// It is defined on the paper chip.
	modePerturb
	// modeSanitize is -sanitize: the sanitizer suite over the cells.
	modeSanitize
	// modeChaos is -chaos: the cells under a deterministic fault schedule.
	modeChaos
	// modeObserve is -metrics, -profile and -perfetto: one instrumented
	// run of a cell.
	modeObserve
)

// sizes scales the cells for one mode: the checking modes use small fixed
// sizes, the measuring modes take -rounds and -iters.
type sizes struct {
	rounds  int            // ping-pong rounds of the fig6 and fig7 cells
	iters   int            // Laplace iterations of the fig9 and dir cells
	pollers int            // activated cores of the fig7 cell
	grid    laplace.Params // the laplace and partition cells' Laplace
}

// trial is one execution of a cell: the mode's scale, the consistency model
// and the mode's modifiers. opts.Topology is the -chips/-grid machine (nil:
// the paper chip) and opts.Members the mode's member set for the
// application cells; each cell shapes its own machine from them.
type trial struct {
	sizes
	model svm.Model
	opts  core.Options
}

// cell is one row of the harness-cell table that every mode enumerates.
type cell struct {
	name string
	// topo marks the cells that run on a -chips/-grid machine.
	topo bool
	// modes is the set of modes that run the cell.
	modes mode
	// chaos lists the models -chaos runs the cell under (nil: one run, the
	// cell fixes its model); label names the runs instead of the model.
	chaos []svm.Model
	label string
	// replay makes -chaos rerun the first run and demand a bit-identical
	// record.
	replay bool
	// armed, when set, limits the cell to fault schedules it accepts.
	armed func(*faults.Config) bool
	// run executes the cell.
	run func(x trial) bench.Record
	// accept is the cell's acceptance check: nil when the record is right.
	// Every mode applies it to every run.
	accept func(x trial, r bench.Record) error
	// detail renders a passing -chaos record (nil: the mailbox recovery
	// counters).
	detail func(r bench.Record) string
	// describe is the -metrics/-profile/-perfetto headline.
	describe func(x trial, r bench.Record) string
}

// cells is the harness-cell table. Each mode enumerates it in order:
// application cells first (under each model), then the harness cells.
var cells = []cell{
	{
		name: "fig6", modes: modePerturb | modeSanitize | modeChaos | modeObserve,
		label: "ipi", replay: true,
		run:    func(x trial) bench.Record { return bench.Fig6Cell(x.rounds, x.opts) },
		accept: mailAccept,
		describe: func(x trial, r bench.Record) string {
			return fmt.Sprintf("IPI ping-pong at maximum mesh distance: %.3f us half round trip", r.US)
		},
	},
	{
		name: "fig7", modes: modePerturb | modeSanitize | modeChaos | modeObserve,
		label:  "polling",
		run:    func(x trial) bench.Record { return bench.Fig7Cell(x.rounds, x.pollers, x.opts) },
		accept: mailAccept,
		describe: func(x trial, r bench.Record) string {
			return fmt.Sprintf("polling ping-pong with %d activated cores: %.3f us half round trip", x.pollers, r.US)
		},
	},
	{
		name: "table1", modes: modePerturb | modeObserve,
		run:    func(x trial) bench.Record { return bench.Table1(svm.Strong, x.opts) },
		accept: completed,
		describe: func(x trial, r bench.Record) string {
			return fmt.Sprintf("strong-model overhead benchmark: map %.3f us, retrieve %.3f us",
				r.Table1.MapUS, r.Table1.RetrieveUS)
		},
	},
	{
		name: "fig9", modes: modePerturb | modeObserve,
		run:    fig9Cell,
		accept: completed,
		describe: func(x trial, r bench.Record) string {
			return fmt.Sprintf("Laplace on 8 cores, strong model: %.1f us iteration loop", r.US)
		},
	},
	{
		// A present-but-disabled fault injector (empty schedule, hardening
		// off) must reproduce the plain fig9 run bit for bit: the
		// perturbation check's observed run gets the injector instead of
		// the observers.
		name: "faults", modes: modePerturb,
		run: func(x trial) bench.Record {
			if x.opts.Observe != (core.Instrumentation{}) {
				x.opts.Observe = core.Instrumentation{}
				x.opts.Faults = &faults.Config{Seed: 3, NoHarden: true}
			}
			return fig9Cell(x)
		},
		accept: completed,
	},
	{
		name: "repldir", modes: modeObserve,
		run: func(x trial) bench.Record {
			x.opts.ReplicatedDirectory = &repldir.Config{}
			return fig9Cell(x)
		},
		accept: completed,
		describe: func(x trial, r bench.Record) string {
			return fmt.Sprintf("Laplace on 8 workers, strong model, replicated ownership directory: %.1f us iteration loop", r.US)
		},
	},
	{
		name: "laplace", topo: true, modes: modeRace | modeSanitize | modeChaos,
		chaos: []svm.Model{svm.Strong, svm.LazyRelease}, replay: true,
		run: func(x trial) bench.Record {
			return bench.Laplace(x.grid, x.model, appOptions(x))
		},
		accept: func(x trial, r bench.Record) error {
			return appAccept(x, r, laplace.ReferenceChecksum(x.grid))
		},
	},
	{
		name: "matmul", topo: true, modes: modeRace | modeSanitize | modeChaos,
		chaos: []svm.Model{svm.Strong},
		run: func(x trial) bench.Record {
			return bench.Matmul(matmul.Params{N: 16}, x.model, appOptions(x))
		},
		accept: func(x trial, r bench.Record) error {
			return appAccept(x, r, matmul.ReferenceChecksum(matmul.Params{N: 16}))
		},
	},
	{
		name: "taskfarm", topo: true, modes: modeRace | modeSanitize,
		run: func(x trial) bench.Record {
			return bench.Taskfarm(taskfarm.DefaultParams(), x.model, appOptions(x))
		},
		accept: func(_ trial, r bench.Record) error {
			return checksum(r, float64(taskfarm.DefaultParams().Expected()))
		},
	},
	{
		// The crash suite: Laplace on the replicated ownership directory
		// with the primary manager killed mid-run and a page owner killed
		// right after it finishes. The cooperative result and the
		// post-crash audit must both be exact, and the counters must show
		// a real failover (and, under the strong model, dead-owner
		// reclaims).
		name: "dir", topo: true, modes: modeChaos,
		chaos: []svm.Model{svm.Strong, svm.LazyRelease}, replay: true,
		armed: func(fc *faults.Config) bool { return len(fc.Spec.Crashes) > 0 },
		run: func(x trial) bench.Record {
			o := appOptions(x)
			if x.opts.Topology != nil {
				o.Members = nil // the default split: all cores minus each chip's manager trio
			}
			return bench.DirCrash(dirLaplace(x.iters), x.model, o)
		},
		accept: func(x trial, r bench.Record) error {
			want := laplace.ReferenceChecksum(dirLaplace(x.iters))
			if err := checksum(r, want); err != nil {
				return err
			}
			switch {
			case r.AuditSum != want:
				return fmt.Errorf("audit checksum %v != reference %v", r.AuditSum, want)
			case r.Faults.Crashes == 0:
				return errors.New("schedule crashed nobody")
			case r.Dir.ViewChanges == 0:
				return fmt.Errorf("no failover despite primary crash: %+v", r.Dir)
			case x.model == svm.Strong && r.Dir.Reconstructions == 0:
				return fmt.Errorf("audit forced no dead-owner reclaims: %+v", r.Dir)
			}
			return nil
		},
		detail: func(r bench.Record) string {
			return fmt.Sprintf("%d crashed, %d failovers, %d reclaims, %d commits, %d fenced",
				r.Faults.Crashes, r.Dir.ViewChanges, r.Dir.Reconstructions, r.Dir.Commits, r.Dir.Fenced)
		},
	},
	{
		// The partition suite: Laplace across two chips through a link
		// outage must stay bit-exact after the link heals.
		name: "partition", topo: true, modes: modeChaos,
		label: "heal", replay: true, armed: partitioned,
		run: func(x trial) bench.Record {
			t := kvTopology(x.opts.Topology, x.opts.Faults)
			chip := bench.ShrunkChip(&t)
			o := x.opts
			o.Topology, o.Members = &chip, smokeMembers(t)
			return bench.PartitionHeal(x.grid, o)
		},
		accept: func(x trial, r bench.Record) error {
			if err := checksum(r, laplace.ReferenceChecksum(x.grid)); err != nil {
				return err
			}
			if r.Faults.PartitionDrops == 0 {
				return fmt.Errorf("outage window dropped nothing (%d injected)", r.Faults.Injected())
			}
			return nil
		},
		detail: func(r bench.Record) string {
			return fmt.Sprintf("%d partition drops, %d injected, bit-exact after heal",
				r.Faults.PartitionDrops, r.Faults.Injected())
		},
	},
	{
		// The serving workload: an exact exactly-once audit and nonzero
		// goodput in every window.
		name: "kvstore", topo: true, modes: modePerturb | modeChaos, replay: true,
		run: func(x trial) bench.Record {
			p := kvstore.DefaultParams()
			p.Requests = 3000
			if x.opts.Faults != nil {
				p.Seed = x.opts.Faults.Seed
			}
			o := kvOptions(x.opts.Topology, x.opts.Faults)
			o.Observe = x.opts.Observe
			return bench.KVStore(p, o)
		},
		accept: func(x trial, r bench.Record) error { return kvAccept(r, x.opts.Faults) },
		detail: func(r bench.Record) string {
			return fmt.Sprintf("%d applied, %d shed, %d expired, %d failovers, %d injected",
				r.KV.Applied, r.KV.Shed, r.KV.Expired, r.KV.Failovers, r.Faults.Injected())
		},
	},
}

// enumerate returns the cells mode m runs, in table order: all of the
// mode's cells on the paper chip (topo nil), only the topology-aware ones
// on a -chips/-grid machine.
func enumerate(m mode, topo *scc.Config) []*cell {
	var out []*cell
	for i := range cells {
		c := &cells[i]
		if c.modes&m != 0 && (topo == nil || c.topo) {
			out = append(out, c)
		}
	}
	return out
}

// names lists the cells' names joined by sep.
func names(cs []*cell, sep string) string {
	var s []string
	for _, c := range cs {
		s = append(s, c.name)
	}
	return strings.Join(s, sep)
}

// fig9Cell is Figure 9's representative cell: the paper's Laplace grid on
// 8 cores under the strong model.
func fig9Cell(x trial) bench.Record {
	cfg := bench.PaperFig9(x.iters)
	x.opts.Topology = &cfg.Chip
	x.opts.Members = core.FirstN(8)
	return bench.Laplace(cfg.Params, svm.Strong, x.opts)
}

// dirLaplace is the crash suite's Laplace: one 4 KiB page per row is the
// point, not the length.
func dirLaplace(iters int) laplace.Params {
	return laplace.Params{Rows: 16, Cols: 512, Iters: min(iters, 8), TopTemp: 100}
}

// appOptions is an application cell's machine: the mode's member set on
// the mode's topology with small memories.
func appOptions(x trial) core.Options {
	chip := bench.ShrunkChip(x.opts.Topology)
	o := x.opts
	o.Topology = &chip
	return o
}

// errFroze is the acceptance failure of a run the watchdog stopped.
var errFroze = errors.New("run froze; watchdog report follows")

// completed accepts any record whose run reached its natural end.
func completed(_ trial, r bench.Record) error {
	if !r.Completed {
		return errFroze
	}
	return nil
}

// checksum accepts a completed record carrying the expected checksum.
func checksum(r bench.Record, want float64) error {
	switch {
	case !r.Completed:
		return errFroze
	case r.Sum != want:
		return fmt.Errorf("checksum %v != reference %v", r.Sum, want)
	}
	return nil
}

// appAccept accepts an application record with the expected checksum whose
// run, under a fault schedule, passes mailAccept.
func appAccept(x trial, r bench.Record, want float64) error {
	if err := checksum(r, want); err != nil {
		return err
	}
	return mailAccept(x, r)
}

// mailAccept accepts a completed record; under a fault schedule the record
// must also show injected faults and, when the schedule drops or corrupts
// mail, the recovery activity that proves the faults were exercised.
func mailAccept(x trial, r bench.Record) error {
	if !r.Completed {
		return errFroze
	}
	fc := x.opts.Faults
	if fc == nil {
		return nil
	}
	if r.Faults.Injected() == 0 {
		return fmt.Errorf("schedule injected no faults (%d decisions)", r.Faults.Decisions)
	}
	mail := fc.Spec.Routes[faults.Mail]
	recovered := r.Mailbox.Retransmits + r.Mailbox.Renudges + r.Mailbox.CorruptDrops +
		r.Mailbox.DupFrames + r.Rescues
	if (mail.DropPermille > 0 || mail.CorruptPermille > 0) && recovered == 0 {
		return fmt.Errorf("no recovery activity despite %d injected faults", r.Faults.Injected())
	}
	return nil
}

// partitioned reports whether a schedule carries link-outage markers.
func partitioned(fc *faults.Config) bool {
	return fc != nil && fc.Spec.HasPartitionMarker()
}

// kvTopology picks the kvstore's machine for a schedule: the caller's
// -chips/-grid machine when given, otherwise a 16-core chip — except that a
// partition schedule needs an inter-chip link to cut and so always gets at
// least two chips. The partition cell shares the choice.
func kvTopology(topo *scc.Config, fc *faults.Config) scc.Config {
	if topo != nil {
		t := topo.Normalized()
		if !partitioned(fc) || t.Chips > 1 {
			return t
		}
	}
	if partitioned(fc) {
		return scc.MultiChip(2, scc.Grid(2, 2, 2))
	}
	return scc.Grid(4, 4, 1)
}

// kvOptions is the kvstore's machine for a schedule: kvTopology's choice,
// with the replicated directory when the schedule crashes cores
// (dead-owner reclaim needs it).
func kvOptions(topo *scc.Config, fc *faults.Config) core.Options {
	t := kvTopology(topo, fc)
	o := core.Options{Topology: &t, Faults: fc}
	if fc != nil && len(fc.Spec.Crashes) > 0 {
		o.ReplicatedDirectory = &repldir.Config{}
	}
	return o
}

// kvAccept is the kvstore's acceptance check: completion, an exact
// exactly-once audit, a complete outcome taxonomy, goodput above zero in
// every reporting window, and under a fault schedule evidence that the
// schedule injected (a partition schedule: that its window dropped
// traffic).
func kvAccept(r bench.Record, fc *faults.Config) error {
	switch {
	case !r.Completed:
		return errFroze
	case !r.KV.AuditOK:
		return fmt.Errorf("exactly-once audit failed: %s", strings.Join(r.KV.AuditErrors, "; "))
	case r.KV.Issued != r.KV.Applied+r.KV.Shed+r.KV.Expired:
		return fmt.Errorf("outcome taxonomy leak: %d issued, %d applied, %d shed, %d expired",
			r.KV.Issued, r.KV.Applied, r.KV.Shed, r.KV.Expired)
	case r.MinGoodput() == 0:
		return fmt.Errorf("a goodput window stalled: %v", r.KV.GoodputWindows)
	case fc != nil && r.Faults.Injected() == 0:
		return errors.New("schedule injected no faults")
	case partitioned(fc) && r.Faults.PartitionDrops == 0:
		return errors.New("partition window dropped nothing")
	}
	return nil
}
