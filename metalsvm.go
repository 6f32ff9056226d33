// Package metalsvm is a Go reproduction of "Revisiting Shared Virtual
// Memory Systems for Non-Coherent Memory-Coupled Cores" (Lankes, Reble,
// Sinnen, Clauss — PMAM 2012): the MetalSVM shared-virtual-memory system
// for the Intel Single-chip Cloud Computer, running on a deterministic
// functional and timing simulator of the SCC platform built into this
// module.
//
// The package re-exports the facade from internal/core so external users
// have a stable entry point:
//
//	m, _ := metalsvm.NewMachine(metalsvm.Options{Members: metalsvm.FirstN(8)})
//	m.RunAll(func(env *metalsvm.Env) {
//	    base := env.SVM.Alloc(1 << 20)
//	    env.Core().Store64(base, 42)
//	    env.SVM.Barrier()
//	})
//
// See README.md for the architecture overview, DESIGN.md for the full
// system inventory, and EXPERIMENTS.md for the paper-versus-measured
// record of every table and figure.
package metalsvm

import (
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/metrics"
	"metalsvm/internal/profile"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/sancheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
	"metalsvm/internal/trace"
)

// Machine is a booted MetalSVM system: the simulated SCC, one kernel per
// member core, and the shared virtual memory system.
type Machine = core.Machine

// Options configures a machine; zero values select the paper's platform.
// Each machine is one deterministic serial simulation: the same Options
// always produce bit-identical simulated results.
type Options = core.Options

// Env is what a workload function receives on each simulated core.
type Env = core.Env

// Baseline is the comparison system: bare cores with the RCCE/iRCCE
// message-passing library and full private-memory caching ("SCC Linux").
type Baseline = core.Baseline

// Model selects the SVM consistency model.
type Model = svm.Model

// The two consistency models of the paper's Section 6.
const (
	Strong      = svm.Strong
	LazyRelease = svm.LazyRelease
)

// Topology is the validated machine-shape configuration: grid dimensions,
// cores per tile, controller and system-port placement, chip count and
// inter-chip link, and the memory/MPB sizing. Build one with PaperSCC,
// Grid or MultiChip (or customize the returned value), pass it through
// Options.Topology, and NewMachine validates it centrally — no component
// layer truncates or panics on an out-of-range shape.
type Topology = scc.Config

// PaperSCC returns the paper's topology: one 48-core 6x4x2 chip with the
// calibrated clocks and latencies — the bit-identical default.
func PaperSCC() Topology { return scc.PaperSCC() }

// Grid returns a single-chip topology for an arbitrary w x h tile grid
// with the given cores per tile, with controllers, system port, and
// memory/MPB sizing scaled to fit.
func Grid(w, h, coresPerTile int) Topology { return scc.Grid(w, h, coresPerTile) }

// MultiChip couples chips copies of a base topology over the simulated
// inter-chip link (override Topology.Link to change its latency and
// bandwidth), rescaling the shared-memory striping and MPB sizing for the
// machine's total core count.
func MultiChip(chips int, base Topology) Topology { return scc.MultiChip(chips, base) }

// ValidateTopology checks a topology without building a machine, returning
// the first problem found (NewMachine runs the same validation).
func ValidateTopology(t Topology) error { return scc.Validate(t.Normalized()) }

// AllCores returns every core id of a topology — the topology-aware
// replacement for FirstN.
func AllCores(topo Topology) []int { return core.AllCores(topo) }

// ChipCores returns chip ch's core-id range of a topology (global core ids
// are chip-major).
func ChipCores(topo Topology, ch int) []int { return core.ChipCores(topo, ch) }

// NewMachine builds the platform, boots nothing yet; call Run or RunAll.
func NewMachine(opts Options) (*Machine, error) { return core.NewMachine(opts) }

// NewBaselineOn builds the message-passing comparison system on an
// explicit topology.
func NewBaselineOn(topo Topology, cores []int) (*Baseline, error) {
	return core.NewBaseline(&topo, cores)
}

// NewBaseline builds the message-passing comparison system on the paper's
// topology. It stays for existing callers; new code should use
// NewBaselineOn with an explicit topology.
func NewBaseline(cores []int) (*Baseline, error) { return core.NewBaseline(nil, cores) }

// FirstN returns the member list {0, ..., n-1}. It stays for existing
// callers; new code should use AllCores/ChipCores with a topology.
func FirstN(n int) []int { return core.FirstN(n) }

// SVMConfig returns the calibrated SVM configuration for a model, ready to
// be customized and passed through Options.SVM.
func SVMConfig(m Model) svm.Config { return svm.DefaultConfig(m) }

// RaceConfig configures the happens-before race checker; pass a pointer
// through Instrumentation.Race to enable it (the zero value selects the
// defaults).
type RaceConfig = racecheck.Config

// RaceChecker is the detector attached to Machine.Race when race checking
// is enabled; inspect it after the run with Races, Dynamic, Clean, or
// Report.
type RaceChecker = racecheck.Checker

// SanitizeConfig configures the sanitizer suite — the SVM shadow-memory
// checker, the Eraser-style lockset checker and the lock-order graph; pass
// a pointer through Instrumentation.Sanitize to enable it (the zero value
// enables every class).
type SanitizeConfig = sancheck.Config

// Sanitizer is the checker attached to the observation when sanitizing is
// enabled; read it with Machine.Observability().San() and inspect it with
// Findings, Dynamic, Clean, or Report.
type Sanitizer = sancheck.Checker

// SanFinding is one sanitizer finding; SanKind classifies it.
type SanFinding = sancheck.Finding

// SanKind classifies a sanitizer finding (uninitialized read, lockset race,
// lock-order cycle, …).
type SanKind = sancheck.Kind

// Instrumentation is the single configuration point for everything that
// observes a run without perturbing it — event tracing, race checking, the
// metrics registry, and the cycle-attribution profiler. Pass it through
// Options.Observe; read the artifacts from Machine.Observability() after
// the run. Every observer charges no simulated cycles, so an instrumented
// run is bit-identical to an uninstrumented one.
type Instrumentation = core.Instrumentation

// Observation carries an instrumented run's artifacts: the metrics
// snapshot, the profile report, the trace events, and the Perfetto export
// (WritePerfetto). All accessors are nil-safe.
type Observation = core.Observation

// ProfileConfig configures the simulated-cycle profiler; pass a pointer
// through Instrumentation.Profile to enable it (the zero value selects the
// defaults).
type ProfileConfig = profile.Config

// ProfileReport is the per-core and aggregate breakdown of where simulated
// time went; render it with WriteText.
type ProfileReport = profile.Report

// ProfileBucket is one category of simulated time in a profile report.
type ProfileBucket = profile.Bucket

// The profiler's time buckets: everything a core does is attributed to
// exactly one of these.
const (
	BucketCompute       = profile.Compute
	BucketCacheStall    = profile.CacheStall
	BucketMeshTransit   = profile.MeshTransit
	BucketMailboxWait   = profile.MailboxWait
	BucketFaultHandling = profile.FaultHandling
	BucketBarrierWait   = profile.BarrierWait
	BucketLockWait      = profile.LockWait
)

// MetricsSnapshot is the end-of-run registry snapshot (counters, gauges,
// histograms, sorted by name); render it with WriteText.
type MetricsSnapshot = metrics.Snapshot

// TraceEvent is one recorded protocol event; TraceKind classifies it.
type TraceEvent = trace.Event

// TraceKind classifies a trace event (fault, ownership transfer, mail, …).
type TraceKind = trace.Kind

// The trace event kinds.
const (
	TraceFault         = trace.KindFault
	TraceFirstTouch    = trace.KindFirstTouch
	TraceOwnerRequest  = trace.KindOwnerRequest
	TraceOwnerTransfer = trace.KindOwnerTransfer
	TraceMailSend      = trace.KindMailSend
	TraceMailRecv      = trace.KindMailRecv
	TraceBarrier       = trace.KindBarrier
	TraceMigration     = trace.KindMigration
	TraceIPI           = trace.KindIPI
	TraceFaultInject   = trace.KindFaultInject
	TraceRetransmit    = trace.KindRetransmit
	TraceWatchdog      = trace.KindWatchdog
	TraceCrash         = trace.KindCrash
	TraceDirCommit     = trace.KindDirCommit
	TraceDirFailover   = trace.KindDirFailover
	TraceDirReclaim    = trace.KindDirReclaim
)

// FaultConfig enables deterministic fault injection; pass a pointer through
// Options.Faults (nil leaves the run bit-identical to a plain one). The
// schedule is fully determined by Seed and Spec, so any run replays
// bit-identically.
type FaultConfig = faults.Config

// FaultSpec is a fault schedule: per-route rates plus core-stall knobs.
type FaultSpec = faults.Spec

// FaultRouteSpec holds the per-mille fault rates of one mesh route.
type FaultRouteSpec = faults.RouteSpec

// FaultStats counts the injector's decisions and injected faults; read it
// from Machine.Chip.FaultInjector().Stats() after the run.
type FaultStats = faults.Stats

// FaultPreset returns a named fault schedule (see FaultPresets) and
// whether the name is known.
func FaultPreset(name string) (FaultSpec, bool) { return faults.PresetSpec(name) }

// FaultPresets lists the named fault schedules shipped with the chaos
// harness (sccbench -chaos seed[,spec]).
func FaultPresets() []string { return faults.Presets() }

// Crash is one scheduled permanent core crash in a fault schedule; the
// sentinel core ids below resolve against the booted machine's role
// assignment when the replicated directory is enabled.
type Crash = faults.Crash

// Sentinel crash targets: the initial primary directory manager, its first
// backup, and the highest-numbered worker.
const (
	CrashPrimaryManager = faults.CrashPrimaryManager
	CrashBackupManager  = faults.CrashBackupManager
	CrashLastWorker     = faults.CrashLastWorker
)

// ReplicatedDirConfig configures the crash-fault-tolerant replicated
// ownership directory; pass a pointer through Options.ReplicatedDirectory
// (nil keeps the paper's single-copy directory bit for bit).
type ReplicatedDirConfig = repldir.Config

// ReplicatedDirStats counts the replicated directory's protocol events;
// read it from Machine.Dir.Stats() after the run.
type ReplicatedDirStats = repldir.Stats

// TraceFilter returns the events matching every given predicate; combine
// with TraceOnCore, TraceOfKind and TraceBetween.
func TraceFilter(events []TraceEvent, preds ...func(TraceEvent) bool) []TraceEvent {
	return trace.Filter(events, preds...)
}

// TraceOnCore filters trace events by core id.
func TraceOnCore(core int) func(TraceEvent) bool { return trace.OnCore(core) }

// TraceOfKind filters trace events by kind.
func TraceOfKind(kind TraceKind) func(TraceEvent) bool { return trace.OfKind(kind) }

// TraceBetween filters trace events by time range [lo, hi) in simulated
// picoseconds.
func TraceBetween(lo, hi uint64) func(TraceEvent) bool {
	return trace.Between(sim.Time(lo), sim.Time(hi))
}
