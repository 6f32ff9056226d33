//metalsvm:host-parallel
package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// layerCounts are the per-layer work counts of one repetition, read after
// the run from the layers' public Stats() accessors (no instrumentation is
// wired, so the run is the plain one).
type layerCounts struct {
	loads, stores, tlbHits, tlbMisses, irqs uint64
	l1Hits, l1Misses, l2Hits, l2Misses      uint64
	wcbFlushes                              uint64
	ddr, mpb, tas, linkCrossings            uint64
	dispatched, timerTicks                  uint64
	mailSends, mailChecks, mailRecvs        uint64
	svmFaults, ownerRequests, svmRetries    uint64
	tasBackoffs                             uint64
}

func (l *layerCounts) add(c *cell) {
	for _, id := range c.members {
		core := c.chip.Core(id)
		st := core.Stats()
		l.loads += st.Loads
		l.stores += st.Stores
		l.tlbHits += st.TLBHits
		l.tlbMisses += st.TLBMisses
		l.irqs += st.IRQs
		l1 := core.L1().Stats()
		l.l1Hits += l1.Hits
		l.l1Misses += l1.Misses
		if l2c := core.L2(); l2c != nil {
			l2 := l2c.Stats()
			l.l2Hits += l2.Hits
			l.l2Misses += l2.Misses
		}
		l.wcbFlushes += core.WCB().Stats().Flushes
		if c.cluster != nil {
			if k := c.cluster.Kernel(id); k != nil {
				ks := k.Stats()
				l.dispatched += ks.Dispatched
				l.timerTicks += ks.TimerTicks
			}
		}
		if c.svm != nil {
			if h := c.svm.Handle(id); h != nil {
				ss := h.Stats()
				l.svmFaults += ss.Faults
				l.ownerRequests += ss.OwnerRequests
				l.svmRetries += ss.Retries
				l.tasBackoffs += ss.TASBackoffs
			}
		}
	}
	ms := c.chip.MeshStats()
	l.ddr += ms.DDRReads + ms.DDRWrites
	l.mpb += ms.MPBAccesses
	l.tas += ms.TASAccesses
	l.linkCrossings += ms.LinkCrossings
	if c.cluster != nil {
		mb := c.cluster.Mailbox().Stats()
		l.mailSends += mb.Sends
		l.mailChecks += mb.Checks
		l.mailRecvs += mb.Recvs
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// buckets are the modules host self time is folded into, in report order.
var buckets = []string{
	"sim", "sched", "cpu", "pgtable", "cache", "phys", "scc", "interchip",
	"kernel", "mailbox", "rcce", "svm", "apps", "gc", "other",
}

// packageBuckets maps a package path under metalsvm/internal to its bucket;
// apps/* and svm/* subpackages fold into their parent by prefix.
var packageBuckets = map[string]string{
	"sim": "sim", "cpu": "cpu", "pgtable": "pgtable", "cache": "cache",
	"phys": "phys", "scc": "scc", "mesh": "scc", "interchip": "interchip",
	"kernel": "kernel", "gic": "kernel", "mailbox": "mailbox", "rcce": "rcce",
	"svm": "svm", "apps": "apps",
}

// schedFrames mark a runtime sample as goroutine handoff and scheduling;
// gcFrames as garbage collection or allocation.
var (
	schedFrames = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready",
		"runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.findRunnable",
		"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.mstart", "runtime.ready",
		"runtime.goschedImpl", "runtime.gosched_m", "runtime.selectgo", "runtime.semasleep",
		"runtime.usleep", "runtime.osyield",
	}
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.gcStart", "runtime.GC",
		"runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.(*mheap)", "runtime.(*mcache)",
	}
)

// packageOf returns the package path of a symbol such as
// "metalsvm/internal/cpu.(*Core).Load".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// moduleBucket maps a non-runtime package to its bucket.
func moduleBucket(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "metalsvm/internal/")
	if !ok {
		return "other"
	}
	top, _, _ := strings.Cut(rest, "/")
	if b, ok := packageBuckets[top]; ok {
		return b
	}
	return "other"
}

func stackHas(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// bucketOf folds one sample's stack (leaf first) into a bucket by its leaf
// frame's package. A runtime leaf is scheduling or GC when the stack shows
// it; any other runtime leaf (memmove, map access) is charged to the nearest
// module frame that called it.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if leaf := packageOf(stack[0]); !isRuntime(leaf) {
		return moduleBucket(leaf)
	}
	switch {
	case stackHas(stack, gcFrames):
		return "gc"
	case stackHas(stack, schedFrames):
		return "sched"
	}
	for _, fn := range stack[1:] {
		if pkg := packageOf(fn); !isRuntime(pkg) {
			return moduleBucket(pkg)
		}
	}
	return "other"
}

// foldProfile adds a CPU profile's sampled CPU time to per-bucket totals.
func foldProfile(data []byte, into map[string]int64) error {
	stacks, err := decodeProfile(data)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		into[bucketOf(s.frames)] += s.value
	}
	return nil
}

// sample is one decoded profile sample: its frames, leaf first, and its
// last value (CPU nanoseconds for a CPU profile).
type sample struct {
	frames []string
	value  int64
}

// decodeProfile decodes the parts of a gzipped pprof profile.proto that
// host-time folding needs: samples, locations (with inlined lines),
// functions and the string table.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					frames = append(frames, strs[idx])
				}
			}
		}
		var v int64
		if len(s.values) > 0 {
			v = s.values[len(s.values)-1]
		}
		out = append(out, sample{frames, v})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// protoFields walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func protoFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerMetrics reduces a traced run to the per-layer metrics: boundary
// spans and tracing overhead, host self-time shares per module, layer work
// counts, simulated kvstore context, and the microbenchmarks.
func (res *result) layerMetrics() {
	traced, plain := res.repsTraced(true), res.repsTraced(false)
	med := func(reps []rep, f func(rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	add := func(name, unit string, v float64) { res.metrics = append(res.metrics, metric{name, unit, v}) }

	add("span.setup_ms", "ms", 1e3*med(traced, func(r rep) float64 { return r.setupS }))
	add("span.run_ms", "ms", 1e3*med(traced, func(r rep) float64 { return r.runS }))
	add("span.verify_ms", "ms", 1e3*med(traced, func(r rep) float64 { return r.verifyS }))
	plainRun := med(plain, func(r rep) float64 { return r.runS })
	add("trace_overhead_pct", "%", 100*(med(traced, func(r rep) float64 { return r.runS })/plainRun-1))

	totals := map[string]int64{}
	for _, r := range traced {
		if err := foldProfile(r.profile, totals); err != nil {
			res.checks = append(res.checks, check{"profile", false, err.Error()})
		}
	}
	var all int64
	for _, b := range buckets {
		all += totals[b]
	}
	for _, b := range buckets {
		add(b+".host_pct", "%", 100*ratio(uint64(totals[b]), uint64(all)))
	}

	l := traced[0].layers
	add("cpu.accesses", "count", float64(l.loads+l.stores))
	add("cpu.tlb_miss_ratio", "ratio", ratio(l.tlbMisses, l.tlbHits+l.tlbMisses))
	add("cpu.irqs", "count", float64(l.irqs))
	add("cache.l1_hit_ratio", "ratio", ratio(l.l1Hits, l.l1Hits+l.l1Misses))
	add("cache.l2_hit_ratio", "ratio", ratio(l.l2Hits, l.l2Hits+l.l2Misses))
	add("wcb.flushes", "count", float64(l.wcbFlushes))
	add("mesh.ddr_accesses", "count", float64(l.ddr))
	add("mesh.mpb_accesses", "count", float64(l.mpb))
	add("mesh.tas_accesses", "count", float64(l.tas))
	add("mesh.link_crossings", "count", float64(l.linkCrossings))
	add("kernel.dispatched", "count", float64(l.dispatched))
	add("kernel.timer_ticks", "count", float64(l.timerTicks))
	add("mailbox.sends", "count", float64(l.mailSends))
	wasted := uint64(0)
	if l.mailChecks > l.mailRecvs {
		wasted = l.mailChecks - l.mailRecvs
	}
	add("mailbox.checks_per_recv", "ratio", ratio(wasted, l.mailRecvs))
	add("svm.faults", "count", float64(l.svmFaults))
	add("svm.owner_requests", "count", float64(l.ownerRequests))
	add("svm.retries_per_request", "ratio", ratio(l.svmRetries, l.ownerRequests))
	add("svm.tas_backoffs", "count", float64(l.tasBackoffs))

	kv := func(name string) uint64 {
		for _, o := range res.outputs {
			if o.name == "kvstore."+name {
				v, _ := strconv.ParseUint(o.value, 10, 64) // written by u64out
				return v
			}
		}
		return 0 // not a kvstore run
	}
	add("kv.applied_ratio", "ratio", ratio(kv("kv_applied"), kv("kv_issued")))
	add("kv.put_p99_sim_ns", "ns", float64(kv("kv_put_p99_ns")))
	add("kv.get_p99_sim_ns", "ns", float64(kv("kv_get_p99_ns")))

	for _, m := range res.micro {
		add("micro."+m.name+"_ns", "ns", m.nsPerOp)
		add("micro."+m.name+"_allocs", "allocs", m.allocsPerOp)
	}
}
