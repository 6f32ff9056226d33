package bench

import (
	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/svm"
)

// Crash-marker resolution fractions: the primary directory manager dies
// early, a backup mid-run, and the "last worker" — which kvstore arranges
// to be a server — dies at 55% of the calibrated run, so failover happens
// with live load still arriving.
const (
	kvCrashPrimaryFrac = 0.30
	kvCrashBackupFrac  = 0.45
	kvCrashServerFrac  = 0.55
)

// Partition-marker resolution: the window opens at 35% of the calibrated
// run and lasts a quarter of it, capped well under the watchdog budget so
// the run degrades instead of freezing.
const (
	kvPartitionFromFrac = 0.35
	kvPartitionLenFrac  = 0.25
	kvPartitionMaxUS    = 1500
)

// KVStore runs the kvstore on opts.Topology (nil: the paper chip) under
// opts.Faults. Marker crashes (zero-time sentinels) and marker partitions
// (zero windows) are resolved against a calibration run of the same seed
// with the schedule stripped — the whole cell stays a deterministic
// function of (params, options); a calibration run that froze is the
// cell's record. opts.ReplicatedDirectory wires the replicated ownership
// directory, required for any schedule that crashes cores (dead-owner
// reclaim needs it); the machine then carves each chip's manager trio out
// of the core set and the rest become SVM workers. The record's US and
// EndUS are the store's end time, KV its audited result.
func KVStore(p kvstore.Params, opts core.Options) Record {
	if opts.Faults != nil && kvNeedsCalibration(opts.Faults.Spec) {
		return calibrate(opts,
			func(sp *faults.Spec) { sp.Crashes, sp.Partitions = nil, nil },
			func(sp *faults.Spec, cal Record) bool {
				sp.Crashes = kvResolveCrashes(sp.Crashes, cal.EndUS)
				sp.Partitions = resolvePartitions(sp.Partitions, cal.EndUS)
				return cal.Completed
			},
			func(opts core.Options) Record { return kvRun(p, opts) })
	}
	return kvRun(p, opts)
}

// kvRun is one machine boot and run.
func kvRun(p kvstore.Params, opts core.Options) Record {
	app := kvstore.New(p)
	return runApp(svm.Strong, opts, func(_ *core.Machine, env *core.Env) { app.Main(env.SVM) },
		func(r *Record) {
			r.KV = app.Result()
			r.US, r.EndUS = r.KV.EndUS, r.KV.EndUS
		})
}

// kvNeedsCalibration reports whether the schedule carries any marker that
// must be resolved against a calibrated run length.
func kvNeedsCalibration(sp faults.Spec) bool {
	if sp.HasPartitionMarker() {
		return true
	}
	for _, cr := range sp.Crashes {
		if cr.AtUS == 0 && cr.AfterDoneUS == 0 {
			return true
		}
	}
	return false
}

// kvResolveCrashes pins marker crash sentinels to concrete mid-run times.
func kvResolveCrashes(crashes []faults.Crash, endUS float64) []faults.Crash {
	out := make([]faults.Crash, 0, len(crashes))
	for _, cr := range crashes {
		if cr.AtUS == 0 && cr.AfterDoneUS == 0 {
			switch cr.Core {
			case faults.CrashPrimaryManager:
				cr.AtUS = kvCrashPrimaryFrac * endUS
			case faults.CrashBackupManager:
				cr.AtUS = kvCrashBackupFrac * endUS
			default:
				// CrashLastWorker (a kvstore server) and concrete cores.
				cr.AtUS = kvCrashServerFrac * endUS
			}
		}
		out = append(out, cr)
	}
	return out
}

// resolvePartitions pins marker partition windows (zero from/to) to a
// concrete mid-run outage derived from a calibrated run length: the window
// opens at 35% of the run and lasts a quarter of it, capped. Shared by the
// kvstore and the partition cell.
func resolvePartitions(parts []faults.Partition, endUS float64) []faults.Partition {
	out := make([]faults.Partition, 0, len(parts))
	for _, pt := range parts {
		if pt.FromUS == 0 && pt.ToUS == 0 {
			pt.FromUS = kvPartitionFromFrac * endUS
			length := kvPartitionLenFrac * endUS
			if length > kvPartitionMaxUS {
				length = kvPartitionMaxUS
			}
			pt.ToUS = pt.FromUS + length
		}
		out = append(out, pt)
	}
	return out
}
