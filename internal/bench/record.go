package bench

import (
	"reflect"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/svm/repldir"
)

// Record is one harness cell's post-mortem. Every cell runner returns one,
// whatever modifiers (topology, members, faults, instrumentation,
// replicated directory) its core.Options carried; fields a cell does not
// produce stay zero.
type Record struct {
	// US is the cell's reported time in simulated microseconds: the half
	// round trip for the ping-pong cells, the measured loop for the
	// applications, the store's end time for the kvstore.
	US float64
	// EndUS is the run's final simulated time in microseconds (the kvstore
	// reports its own end time, the instant its last client finished).
	EndUS float64
	// CalEndUS is the calibration run's EndUS when the fault schedule
	// carried markers that had to be resolved to concrete times first.
	CalEndUS float64
	// Completed reports whether the measurement reached its natural end.
	Completed bool
	// Watchdog is the progress watchdog's diagnostic report ("" when it did
	// not fire).
	Watchdog string
	// Faults is the injector's decision and injection record.
	Faults faults.Stats
	// Mailbox carries the protocol counters, including the hardened
	// recovery counters (retransmits, discarded corruptions/duplicates).
	Mailbox mailbox.Stats
	// Rescues counts hardened WaitFor parks that found missed mail.
	Rescues uint64
	// Dir is the replicated directory's protocol counters.
	Dir repldir.Stats
	// Sum is the application checksum (the task farm's integer sum
	// converted to float64).
	Sum float64
	// AuditSum is the checksum of the full grid re-read by one surviving
	// core after the crash window (the directory crash cell only).
	AuditSum float64
	// KV is the kvstore's audited result.
	KV kvstore.Result
	// Table1 is the overhead benchmark's result.
	Table1 Table1Result
	// Obs is the run's observation (nil when Options.Observe requested
	// nothing).
	Obs *core.Observation
}

// postMortem reads a finished cluster's harness-level record.
func postMortem(cl *kernel.Cluster, obs *core.Observation) Record {
	r := Record{
		Completed: !cl.WatchdogFired(),
		Watchdog:  cl.WatchdogReport(),
		Faults:    cl.Chip().FaultInjector().Stats(),
		Mailbox:   cl.Mailbox().Stats(),
		Obs:       obs,
	}
	for _, id := range cl.Members() {
		if k := cl.Kernel(id); k != nil {
			r.Rescues += k.Stats().Rescues
		}
	}
	return r
}

// Same reports whether two records of one cell describe bit-identical runs:
// every simulated field equal, the observation ignored. It is the
// comparison behind the replay and zero-perturbation checks.
func (r Record) Same(o Record) bool {
	r.Obs, o.Obs = nil, nil
	return reflect.DeepEqual(r, o)
}

// MinGoodput returns the smallest per-window applied count of a kvstore
// record (the graceful-degradation figure: it must stay above zero under
// faults).
func (r Record) MinGoodput() uint64 {
	if len(r.KV.GoodputWindows) == 0 {
		return 0
	}
	min := r.KV.GoodputWindows[0]
	for _, n := range r.KV.GoodputWindows {
		if n < min {
			min = n
		}
	}
	return min
}

// calibrate resolves a fault schedule's markers against a calibration run:
// it runs the cell once with strip applied to the schedule and no
// instrumentation, then again with the schedule resolve derives from the
// calibration record. resolve reports false to end the cell with the
// calibration record instead (a cell whose policy needs a completed
// calibration). The whole cell stays a deterministic function of its
// configuration.
func calibrate(opts core.Options, strip func(*faults.Spec), resolve func(*faults.Spec, Record) bool,
	run func(core.Options) Record) Record {
	cal := *opts.Faults
	strip(&cal.Spec)
	calOpts := opts
	calOpts.Faults = &cal
	calOpts.Observe = core.Instrumentation{}
	c := run(calOpts)
	armed := *opts.Faults
	if !resolve(&armed.Spec, c) {
		return c
	}
	opts.Faults = &armed
	r := run(opts)
	r.CalEndUS = c.EndUS
	return r
}
