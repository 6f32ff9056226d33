package bench

import (
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// This file holds the application cells: one SVM workload on a Machine
// built from the caller's options, with the model as the cell's column.
// opts.SVM is replaced by the model's default configuration; every other
// field passes through to core.NewMachine (nil Topology is the full-memory
// paper chip, nil Members boots every core).

// Laplace runs the SVM Laplace solver — Figure 9's cell, and with
// opts.ReplicatedDirectory set, the replicated-directory cell. US is the
// iteration-loop time and Sum the checksum; a run the watchdog stopped
// reports neither.
func Laplace(p laplace.Params, model svm.Model, opts core.Options) Record {
	app := laplace.NewSVM(p, laplace.SVMOptions{})
	return runApp(model, opts, func(_ *core.Machine, env *core.Env) { app.Main(env.SVM) },
		func(r *Record) {
			res := app.Result()
			r.US, r.Sum = res.Elapsed.Microseconds(), res.Checksum
		})
}

// Matmul runs the matrix multiply, a second application with cross-rank
// reads. US is the multiply-loop time and Sum the checksum.
func Matmul(p matmul.Params, model svm.Model, opts core.Options) Record {
	app := matmul.New(p)
	return runApp(model, opts, func(_ *core.Machine, env *core.Env) { app.Main(env.SVM) },
		func(r *Record) {
			res := app.Result()
			r.US, r.Sum = res.Elapsed.Microseconds(), res.Checksum
		})
}

// Taskfarm runs the dynamic task farm. US is the longest per-core busy time
// and Sum the reduced sum.
func Taskfarm(p taskfarm.Params, model svm.Model, opts core.Options) Record {
	app := taskfarm.New(p)
	return runApp(model, opts, func(_ *core.Machine, env *core.Env) { app.Main(env.SVM) },
		func(r *Record) {
			res := app.Result()
			r.US, r.Sum = res.Elapsed.Microseconds(), float64(res.Sum)
		})
}

// auditDelayCycles keeps the auditing rank busy long enough (~375 µs at
// 533 MHz) for the after-done crash schedule to kill the last worker before
// the audit's first load.
const auditDelayCycles = 200_000

// DirCrash runs the Laplace cell on the replicated ownership directory
// under opts.Faults' crash schedule: the initial primary directory manager
// is killed mid-computation (forcing a view-change failover) and the last
// worker right after it finishes, so the audit — the full grid re-read by
// the first worker (AuditSum) — must revoke and reassign its pages. Crash
// times are calibrated from a crash-free run of the same seed and schedule.
// opts.Members are the SVM workers (nil: every core except each chip's
// manager trio); opts.ReplicatedDirectory nil selects the default
// directory configuration.
func DirCrash(p laplace.Params, model svm.Model, opts core.Options) Record {
	if opts.ReplicatedDirectory == nil {
		opts.ReplicatedDirectory = &repldir.Config{}
	}
	return calibrate(opts,
		func(sp *faults.Spec) { sp.Crashes = nil },
		func(sp *faults.Spec, cal Record) bool {
			// A calibration the watchdog stopped still yields an end
			// time; the armed run proceeds either way.
			sp.Crashes = []faults.Crash{
				{Core: faults.CrashPrimaryManager, AtUS: 0.4 * cal.EndUS},
				{Core: faults.CrashLastWorker, AfterDoneUS: 50},
			}
			return true
		},
		func(opts core.Options) Record {
			app := laplace.NewSVM(p, laplace.SVMOptions{})
			var audit float64
			return runApp(model, opts, func(m *core.Machine, env *core.Env) {
				app.Main(env.SVM)
				if env.K.ID() == m.SVM.Workers()[0] {
					env.Core().Cycles(auditDelayCycles)
					audit = app.AuditChecksum(env.Core())
				}
			}, func(r *Record) {
				res := app.Result()
				r.US, r.Sum, r.AuditSum = res.Elapsed.Microseconds(), res.Checksum, audit
			})
		})
}

// PartitionHeal runs the strong-model Laplace cell through an inter-chip
// link outage: opts.Faults' marker partition windows are resolved against
// the iteration-loop time of an outage-free calibration run of the same
// seed, so the outage opens mid-computation and heals before the end. A
// calibration run that froze is the cell's record.
func PartitionHeal(p laplace.Params, opts core.Options) Record {
	return calibrate(opts,
		func(sp *faults.Spec) { sp.Partitions = nil },
		func(sp *faults.Spec, cal Record) bool {
			sp.Partitions = resolvePartitions(sp.Partitions, cal.US)
			return cal.Completed
		},
		func(opts core.Options) Record { return Laplace(p, svm.Strong, opts) })
}

// runApp boots a Machine for one application cell, runs main on every SVM
// worker and assembles the record; result fills the application's fields
// when the run completed.
func runApp(model svm.Model, opts core.Options, main func(*core.Machine, *core.Env), result func(*Record)) Record {
	m := newMachine(model, opts)
	end := m.RunAll(func(env *core.Env) { main(m, env) })
	r := postMortem(m.Cluster, m.Observability())
	r.EndUS = end.Microseconds()
	if m.Dir != nil {
		r.Dir = m.Dir.Stats()
	}
	if r.Completed {
		result(&r)
	}
	return r
}

// newMachine builds a Machine from opts with the model's default SVM
// configuration; the harness configurations are valid by construction.
func newMachine(model svm.Model, opts core.Options) *core.Machine {
	scfg := svm.DefaultConfig(model)
	opts.SVM = &scfg
	m, err := core.NewMachine(opts)
	if err != nil {
		panic(err)
	}
	return m
}
