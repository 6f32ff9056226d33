// Command perfbench is the repository benchmark: it runs one workload of
// the simulator for a fixed host-time budget, verifies every simulated
// output, and prints host-side end-to-end metrics (or, with -trace 1, the
// per-layer attribution) ending in one JSON line. See README.md.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload kvstore --seed 1 --seconds 20 --trace 0
//
// Host-clock reads are the point of this program; the directive below
// tells metalsvm-vet that they are deliberate.
//
//metalsvm:host-parallel
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed the recorded outputs (golden.go) were taken at.
const defaultSeed = 1

func main() {
	wname := flag.String("workload", "", "workload: laplace-strong, laplace-ircce, kvstore or scale-512")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (drives the kvstore's arrivals, keys and op mix)")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead")
	flag.Parse()
	w, ok := findWorkload(*wname)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wname, *seconds, *traceFlag)
		flag.Usage()
		os.Exit(2)
	}
	// Simulations must run from main, not from an init function: init runs
	// on the locked main OS thread, which turns every proc handoff into a
	// futex round trip.
	res, err := measure(w, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// rep is one repetition of a workload: every cell set up, run and verified
// once.
type rep struct {
	traced   bool
	setupS   float64
	runS     float64
	verifyS  float64
	cpuS     float64
	simUS    float64
	accesses uint64
	allocB   uint64
	outputs  []output
	checks   []check
	layers   layerCounts
	profile  []byte
}

// runRep sets up, runs and verifies every cell of w once. A traced rep runs
// under the CPU profiler and also collects the layer counters.
func runRep(w workload, seed uint64, traced bool) (r rep, err error) {
	r.traced = traced
	if traced {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			r.profile = prof.Bytes()
		}()
	}
	for _, spec := range w.cells {
		// Every simulation starts from a collected heap whose free memory
		// went back to the OS, as in a fresh process: neither timings nor
		// peak RSS depend on when the collector or the scavenger last ran,
		// and every set-up pays the same page faults.
		debug.FreeOSMemory()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)

		t0 := time.Now()
		c, err := spec.setup(seed)
		r.setupS += time.Since(t0).Seconds()
		if err != nil {
			return r, fmt.Errorf("set up %s: %w", spec.name, err)
		}

		cpu0 := cpuSeconds()
		t1 := time.Now()
		end := c.run()
		r.runS += time.Since(t1).Seconds()
		r.cpuS += cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		r.allocB += m1.TotalAlloc - m0.TotalAlloc

		t2 := time.Now()
		outs, checks := safeVerify(c)
		r.verifyS += time.Since(t2).Seconds()

		r.simUS += end.Microseconds()
		r.outputs = append(r.outputs, output{spec.name + ".end_ps", fmt.Sprint(uint64(end))})
		for _, o := range outs {
			r.outputs = append(r.outputs, output{spec.name + "." + o.name, o.value})
		}
		for _, ch := range checks {
			ch.name = spec.name + "." + ch.name
			r.checks = append(r.checks, ch)
		}
		for _, id := range c.members {
			st := c.chip.Core(id).Stats()
			r.accesses += st.Loads + st.Stores
		}
		if traced {
			r.layers.add(c)
		}
	}
	return r, nil
}

// safeVerify runs a cell's verification, reporting a panicking Result() (a
// rank that never finished) as a failed check instead of aborting the run.
func safeVerify(c *cell) (outs []output, checks []check) {
	defer func() {
		if p := recover(); p != nil {
			outs = nil
			checks = []check{{"result", false, fmt.Sprint("Result() panicked: ", p)}}
		}
	}()
	return c.verify()
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is one benchmark run's report.
type result struct {
	workload string
	seed     uint64
	traced   bool
	reps     []rep
	peakRSS  float64
	checks   []check
	metrics  []metric
	outputs  []output
	samples  map[string][]float64
	micro    []microResult
}

type metric struct {
	name  string
	unit  string
	value float64
}

// measure runs repetitions of w until seconds of host time have passed. An
// untraced run reports the end-to-end metrics; a traced run alternates
// untraced and traced repetitions and reports the per-layer metrics.
func measure(w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	res := &result{workload: w.name, seed: seed, traced: traced, samples: map[string][]float64{}}
	start := time.Now()
	for i := 0; ; i++ {
		tracedRep := traced && i%2 == 1
		r, err := runRep(w, seed, tracedRep)
		if err != nil {
			return nil, err
		}
		res.reps = append(res.reps, r)
		// Stop at the repetition boundary nearest the budget, so that the
		// repetition count is the budget over the repetition time, rounded.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(2*(i+1)) >= seconds && (!traced || i >= 1) {
			break
		}
	}
	res.peakRSS = peakRSSMB()
	res.verify()
	if traced {
		res.micro = runMicros()
		res.layerMetrics()
	} else {
		res.endToEndMetrics()
	}
	return res, nil
}

// verify collects every repetition's checks plus two of its own: every
// repetition (traced or not) reproduces the first one's simulated outputs
// bit for bit, and the outputs equal the recorded ones where recorded
// values apply to this seed.
func (res *result) verify() {
	first := res.reps[0].outputs
	res.outputs = first
	for i, r := range res.reps {
		res.checks = append(res.checks, r.checks...)
		if i > 0 {
			res.checks = append(res.checks, check{
				name:   fmt.Sprintf("rep%d.replay", i),
				ok:     sameOutputs(first, r.outputs),
				detail: fmt.Sprintf("rep %d (traced=%v) outputs differ from rep 0", i, r.traced),
			})
		}
	}
	if want, ok := goldenFor(res.workload, res.seed); ok {
		for _, o := range first {
			g, ok := want[o.name]
			res.checks = append(res.checks, check{
				name:   "golden." + o.name,
				ok:     ok && g == o.value,
				detail: fmt.Sprintf("%s = %s, recorded %s", o.name, o.value, g),
			})
		}
	}
}

func sameOutputs(a, b []output) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// repsTraced returns the repetitions that ran traced (or untraced).
func (res *result) repsTraced(traced bool) []rep {
	var out []rep
	for _, r := range res.reps {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// endToEndMetrics reduces the repetitions to the end-to-end metrics: the
// median over repetitions of each per-repetition figure.
func (res *result) endToEndMetrics() {
	reps := res.repsTraced(false)
	series := func(f func(r rep) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	add := func(name, unit string, xs []float64) {
		res.samples[name] = xs
		res.metrics = append(res.metrics, metric{name, unit, median(xs)})
	}
	add("wall_s", "s", series(func(r rep) float64 { return r.runS }))
	add("setup_s", "s", series(func(r rep) float64 { return r.setupS }))
	add("cpu_s", "s", series(func(r rep) float64 { return r.cpuS }))
	add("sim_us_per_s", "us/s", series(func(r rep) float64 { return r.simUS / r.runS }))
	add("ns_per_access", "ns", series(func(r rep) float64 { return r.runS * 1e9 / float64(r.accesses) }))
	res.metrics = append(res.metrics, metric{"peak_rss_mb", "MiB", res.peakRSS})
	add("alloc_mb", "MiB", series(func(r rep) float64 { return float64(r.allocB) / (1 << 20) }))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, or ok=false when there are too few samples.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	k := n - 10 // 1-based rank with n-k = 10 samples above it
	if k < 1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * k / n, s[k-1], true
}

func (res *result) failed() int {
	n := 0
	for _, ch := range res.checks {
		if !ch.ok {
			n++
		}
	}
	return n
}

// print writes the human-readable report and, last, the JSON line.
func (res *result) print(f *os.File) {
	mode := "end-to-end"
	if res.traced {
		mode = "traced per-layer"
	}
	fmt.Fprintf(f, "perfbench: workload %s, seed %d, %s, %d repetitions, GOMAXPROCS %d, NumCPU %d, %s\n",
		res.workload, res.seed, mode, len(res.reps), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, o := range res.outputs {
		fmt.Fprintf(f, "  output %-32s %s\n", o.name, o.value)
	}
	failed := res.failed()
	for _, ch := range res.checks {
		if !ch.ok {
			fmt.Fprintf(f, "  FAILED %s: %s\n", ch.name, ch.detail)
		}
	}
	fmt.Fprintf(f, "  %-28s %12.6f share (%d of %d checks failed)\n", "fail_share", float64(failed)/float64(len(res.checks)), failed, len(res.checks))
	for _, m := range res.metrics {
		line := fmt.Sprintf("  %-28s %14.6f %s", m.name, m.value, m.unit)
		if xs, ok := res.samples[m.name]; ok {
			if pct, v, ok := tailPercentile(xs); ok {
				line += fmt.Sprintf("  (median; p%d %.6f; n=%d)", pct, v, len(xs))
			} else {
				line += fmt.Sprintf("  (median; n=%d, too few for a tail percentile)", len(xs))
			}
		}
		fmt.Fprintln(f, line)
	}
	for _, mr := range res.micro {
		fmt.Fprintf(f, "  micro %-22s %10.1f ns/op %8.2f allocs/op (%d ops)\n", mr.name, mr.nsPerOp, mr.allocsPerOp, mr.ops)
	}
	type jmetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jmetric, len(res.metrics))
	for _, m := range res.metrics {
		metrics[m.name] = jmetric{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]jmetric `json:"metrics"`
	}{failed == 0, len(res.checks), failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(out))
}
