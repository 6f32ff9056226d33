package core

import (
	"fmt"
	"io"

	"metalsvm/internal/cache"
	"metalsvm/internal/faults"
	"metalsvm/internal/kernel"
	"metalsvm/internal/metrics"
	"metalsvm/internal/perfetto"
	"metalsvm/internal/profile"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/sancheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
	"metalsvm/internal/trace"
)

// Instrumentation is the single configuration point for everything that
// observes a run without perturbing it: event tracing, race checking, the
// metrics registry, and the cycle-attribution profiler. Every observer
// follows the same discipline — nil-checked hooks that charge no simulated
// cycles — so a run with any combination enabled is bit-identical to an
// uninstrumented one (asserted by the equivalence tests and sccbench
// -check).
//
// Pass it via Options.Observe (or Domains.Observe); read the results from
// the Observation after the run.
type Instrumentation struct {
	// TraceCapacity, when positive, installs a protocol-event ring buffer of
	// that capacity on the chip (unless one is already present).
	TraceCapacity int
	// Race, when non-nil, enables the happens-before race checker.
	Race *racecheck.Config
	// Sanitize, when non-nil, enables the sanitizer suite: the SVM shadow-
	// memory checker, the Eraser-style lockset checker and the lock-order
	// graph. The zero Config enables every class.
	Sanitize *sancheck.Config
	// Metrics enables the end-of-run metrics snapshot harvested from every
	// subsystem's counters.
	Metrics bool
	// Profile, when non-nil, enables the simulated-cycle profiler. The zero
	// Config selects defaults.
	Profile *profile.Config
}

// enabled reports whether any observer is requested.
func (i Instrumentation) enabled() bool {
	return i.TraceCapacity > 0 || i.Race != nil || i.Sanitize != nil ||
		i.Metrics || i.Profile != nil
}

// Observation carries a run's instrumentation state and, after Finish, its
// artifacts. Accessors are nil-safe so callers can hold a nil *Observation
// when instrumentation is off.
type Observation struct {
	chip     *scc.Chip
	clusters []*kernel.Cluster
	systems  []*svm.System
	dirs     []*repldir.System

	race    *racecheck.Checker
	san     *sancheck.Checker
	prof    *profile.Profiler
	metrics bool

	finished bool
	snapshot *metrics.Snapshot
	report   *profile.Report
}

// Observe wires the requested observers into a built (not yet run) system:
// the chip, its kernel clusters and their SVM systems. Machine and Domains
// call it through Options.Observe; benchmark harnesses that assemble
// clusters by hand call it directly. Call Finish after the engine has run.
func Observe(cfg Instrumentation, chip *scc.Chip,
	clusters []*kernel.Cluster, systems []*svm.System) *Observation {
	if !cfg.enabled() {
		return nil
	}
	o := &Observation{chip: chip, clusters: clusters, systems: systems, metrics: cfg.Metrics}
	if cfg.TraceCapacity > 0 && chip.Tracer() == nil {
		chip.SetTracer(trace.NewBuffer(cfg.TraceCapacity))
	}
	if cfg.Race != nil {
		o.race = wireRaceChecker(*cfg.Race, chip, clusters, systems)
	}
	if cfg.Sanitize != nil {
		// Wired after the race checker on purpose: the sanitizer's adapters
		// take over the single-slot cpu and svm hooks and forward to it.
		o.san = wireSanChecker(*cfg.Sanitize, chip, clusters, systems, o.race)
	}
	if cfg.Profile != nil {
		o.prof = profile.New(chip.Cores(), *cfg.Profile)
		for _, cl := range clusters {
			cl.SetProfiler(o.prof)
			for _, id := range cl.Members() {
				chip.Core(id).SetProfiler(o.prof)
			}
		}
		for _, sys := range systems {
			sys.SetProfiler(o.prof)
		}
	}
	return o
}

// AddDirectory registers a replicated ownership directory so its protocol
// counters join the metrics harvest. Nil-safe on both sides, so callers can
// pass their (possibly nil) directory unconditionally.
func (o *Observation) AddDirectory(d *repldir.System) {
	if o == nil || d == nil {
		return
	}
	o.dirs = append(o.dirs, d)
}

// Finish closes out the observation after the engine has run: it finalizes
// every profiled core at its final local time and harvests the metrics
// snapshot. Idempotent and nil-safe; Machine.Run and Domains.Run call it
// automatically.
func (o *Observation) Finish() {
	if o == nil || o.finished {
		return
	}
	o.finished = true
	for _, cl := range o.clusters {
		for _, id := range cl.Members() {
			o.prof.Finish(id, o.chip.Core(id).Proc().LocalTime())
		}
	}
	if o.prof != nil {
		o.report = o.prof.Report()
	}
	if o.san != nil {
		o.san.Finalize()
	}
	if o.metrics {
		o.snapshot = o.harvest()
	}
}

// Race returns the race checker (nil when not enabled).
func (o *Observation) Race() *racecheck.Checker {
	if o == nil {
		return nil
	}
	return o.race
}

// San returns the sanitizer checker (nil when not enabled).
func (o *Observation) San() *sancheck.Checker {
	if o == nil {
		return nil
	}
	return o.san
}

// Profiler returns the live profiler (nil when not enabled); most callers
// want ProfileReport instead.
func (o *Observation) Profiler() *profile.Profiler {
	if o == nil {
		return nil
	}
	return o.prof
}

// ProfileReport returns the per-core time breakdown (nil before Finish or
// when the profiler was not enabled).
func (o *Observation) ProfileReport() *profile.Report {
	if o == nil {
		return nil
	}
	return o.report
}

// MetricsSnapshot returns the harvested metrics (nil before Finish or when
// Metrics was not enabled).
func (o *Observation) MetricsSnapshot() *metrics.Snapshot {
	if o == nil {
		return nil
	}
	return o.snapshot
}

// TraceEvents returns the retained trace events (see trace.Buffer.Events
// for the ordering contract; nil when tracing is off).
func (o *Observation) TraceEvents() []trace.Event {
	if o == nil {
		return nil
	}
	return o.chip.Tracer().Events()
}

// TraceSummary summarizes the retained trace events, including the ring's
// drop count.
func (o *Observation) TraceSummary() trace.Summary {
	if o == nil {
		return trace.Summary{}
	}
	return o.chip.Tracer().Summary()
}

// WritePerfetto exports the run as Chrome trace-event JSON (Perfetto-
// loadable): profiler spans as per-core timelines, trace events as instants,
// and the SVM protocol's mail and ownership hand-offs as flow arrows.
func (o *Observation) WritePerfetto(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("core: no observation to export")
	}
	return perfetto.Write(w, o.TraceEvents(), o.prof.Spans())
}

// harvest fills a metrics registry from every subsystem's counters. The
// names are stable "subsystem.metric" keys; values aggregate over the
// observed clusters' members.
func (o *Observation) harvest() *metrics.Snapshot {
	r := metrics.NewRegistry()

	ms := o.chip.MeshStats()
	r.Counter("mesh.ddr_reads").Add(ms.DDRReads)
	r.Counter("mesh.ddr_writes").Add(ms.DDRWrites)
	r.Counter("mesh.mpb_accesses").Add(ms.MPBAccesses)
	r.Counter("mesh.tas_accesses").Add(ms.TASAccesses)
	r.Counter("mesh.ipis").Add(ms.IPIs)
	hops := r.Histogram("mesh.hops")
	for h, n := range ms.HopHist {
		hops.ObserveN(uint64(h), n)
	}

	// Per-core counters range over every core of the chip: a core that
	// never booted adds zeros, and a machine without kernel clusters (the
	// RCCE baseline) is covered too.
	for id := 0; id < o.chip.Cores(); id++ {
		c := o.chip.Core(id)
		cs := c.Stats()
		r.Counter("cpu.loads").Add(cs.Loads)
		r.Counter("cpu.stores").Add(cs.Stores)
		r.Counter("cpu.faults").Add(cs.Faults)
		r.Counter("cpu.irqs").Add(cs.IRQs)
		r.Counter("cpu.wcb_read_stalls").Add(cs.WCBROBs)
		r.Counter("cpu.tlb_hits").Add(cs.TLBHits)
		r.Counter("cpu.tlb_misses").Add(cs.TLBMisses)
		harvestCache(r, "cache.l1", c.L1().Stats())
		if c.L2() != nil {
			harvestCache(r, "cache.l2", c.L2().Stats())
		}
		ws := c.WCB().Stats()
		r.Counter("wcb.writes").Add(ws.Writes)
		r.Counter("wcb.flushes").Add(ws.Flushes)
		r.Counter("wcb.full_lines").Add(ws.FullLines)
		r.Counter("wcb.read_stalls").Add(ws.ReadStalls)
	}
	for _, cl := range o.clusters {
		mbs := cl.Mailbox().Stats()
		r.Counter("mailbox.sends").Add(mbs.Sends)
		r.Counter("mailbox.busy_waits").Add(mbs.BusyWaits)
		r.Counter("mailbox.checks").Add(mbs.Checks)
		r.Counter("mailbox.recvs").Add(mbs.Recvs)
		r.Counter("mailbox.ipi_wakeups").Add(mbs.IPIs)
		r.Counter("mailbox.retransmits").Add(mbs.Retransmits)
		r.Counter("mailbox.renudges").Add(mbs.Renudges)
		r.Counter("mailbox.corrupt_drops").Add(mbs.CorruptDrops)
		r.Counter("mailbox.dup_frames").Add(mbs.DupFrames)
		r.Counter("mailbox.short_frames").Add(mbs.ShortFrames)
		r.Counter("mailbox.dead_drops").Add(mbs.DeadDrops)
		for _, id := range cl.Members() {
			if k := cl.Kernel(id); k != nil {
				ks := k.Stats()
				r.Counter("kernel.timer_ticks").Add(ks.TimerTicks)
				r.Counter("kernel.ipis").Add(ks.IPIs)
				r.Counter("kernel.dispatched").Add(ks.Dispatched)
				r.Counter("kernel.barriers").Add(ks.Barriers)
				r.Counter("kernel.rescues").Add(ks.Rescues)
			}
		}
	}
	for _, sys := range o.systems {
		for _, id := range sys.Cluster().Members() {
			h := sys.Handle(id)
			if h == nil {
				continue
			}
			ss := h.Stats()
			r.Counter("svm.faults").Add(ss.Faults)
			r.Counter("svm.first_touches").Add(ss.FirstTouches)
			r.Counter("svm.map_existing").Add(ss.MapExisting)
			r.Counter("svm.owner_requests").Add(ss.OwnerRequests)
			r.Counter("svm.owner_served").Add(ss.OwnerServed)
			r.Counter("svm.forwards").Add(ss.Forwards)
			r.Counter("svm.retries").Add(ss.Retries)
			r.Counter("svm.locks").Add(ss.Locks)
			r.Counter("svm.lock_waits").Add(ss.LockWaits)
			r.Counter("svm.barriers").Add(ss.Barriers)
			r.Counter("svm.tas_backoffs").Add(ss.TASBackoffs)
			r.Counter("svm.owner_backoffs").Add(ss.OwnerBackoffs)
		}
	}
	for _, d := range o.dirs {
		ds := d.Stats()
		r.Counter("dir.requests").Add(ds.Requests)
		r.Counter("dir.lookups").Add(ds.Lookups)
		r.Counter("dir.claims").Add(ds.Claims)
		r.Counter("dir.get_owners").Add(ds.GetOwners)
		r.Counter("dir.transfers").Add(ds.Transfers)
		r.Counter("dir.reclaims").Add(ds.Reclaims)
		r.Counter("dir.forgets").Add(ds.Forgets)
		r.Counter("dir.redirects").Add(ds.Redirects)
		r.Counter("dir.timeouts").Add(ds.Timeouts)
		r.Counter("dir.client_retries").Add(ds.ClientRetries)
		r.Counter("dir.commits").Add(ds.Commits)
		r.Counter("dir.prepares").Add(ds.Prepares)
		r.Counter("dir.prepare_oks").Add(ds.PrepareOKs)
		r.Counter("dir.solo_commits").Add(ds.SoloCommits)
		r.Counter("dir.view_changes").Add(ds.ViewChanges)
		r.Counter("dir.reconstructions").Add(ds.Reconstructions)
		r.Counter("dir.fenced").Add(ds.Fenced)
		r.Counter("dir.orphan_reclaims").Add(ds.OrphanReclaims)
		r.Counter("dir.fetch_retries").Add(ds.FetchRetries)
		r.Counter("dir.fetch_aborts").Add(ds.FetchAborts)
	}
	if in := o.chip.FaultInjector(); in.Enabled() {
		fs := in.Stats()
		r.Counter("faults.decisions").Add(fs.Decisions)
		r.Counter("faults.injected").Add(fs.Injected())
		r.Counter("faults.stalls").Add(fs.Stalls)
		r.Counter("faults.crashes").Add(fs.Crashes)
		for rt := faults.Route(0); rt < faults.NumRoutes; rt++ {
			r.Counter("faults.drops." + rt.String()).Add(fs.Drops[rt])
			r.Counter("faults.dups." + rt.String()).Add(fs.Dups[rt])
			r.Counter("faults.delays." + rt.String()).Add(fs.Delays[rt])
			r.Counter("faults.corruptions." + rt.String()).Add(fs.Corruptions[rt])
		}
	}
	if tr := o.chip.Tracer(); tr != nil {
		r.Counter("trace.events").Add(uint64(tr.Len()))
		r.Counter("trace.dropped").Add(tr.Dropped())
	}
	return r.Snapshot()
}

// harvestCache books one cache level's counters under a name prefix.
func harvestCache(r *metrics.Registry, prefix string, s cache.Stats) {
	r.Counter(prefix + ".hits").Add(s.Hits)
	r.Counter(prefix + ".misses").Add(s.Misses)
	r.Counter(prefix + ".fills").Add(s.Fills)
	r.Counter(prefix + ".evictions").Add(s.Evictions)
	r.Counter(prefix + ".write_hits").Add(s.WriteHits)
	r.Counter(prefix + ".write_misses").Add(s.WriteMisses)
	r.Counter(prefix + ".invalidates").Add(s.Invalidates)
}
