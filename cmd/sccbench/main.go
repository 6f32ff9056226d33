// Command sccbench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the simulated SCC platform, plus the ablation
// studies DESIGN.md calls out. `sccbench -h` lists the commands (fig6,
// fig7, table1, fig9, scale, ablation, comm, kvstore; `all` runs every one
// but kvstore) and the cells of each mode; the text is generated from the
// command table below and the cell table in cells.go.
//
// Flags tune the measurement sizes; the defaults give the paper's shapes
// in well under a coffee break. All times are simulated (533 MHz cores,
// 800 MHz mesh and memory, as in the paper's test platform).
//
// -chips and -grid select a different machine through the validated
// topology API: -grid WxHxC reshapes each chip's tile grid and -chips N
// couples N such chips over the inter-chip link. The topology-aware
// harnesses (fig6, fig7, fig9, scale, kvstore, and the topology-aware
// cells of -check, -sanitize and -chaos) then run on that machine — e.g.
// `sccbench -chips 4 -grid 8x8x2 scale` boots 512 cores.
//
// -check, -sanitize, -chaos and -metrics/-profile/-perfetto each run the
// cells of one table (cells.go) under their own modifiers: the race
// checker, the sanitizer suite, a fault schedule, or the observers.
//
// Independent simulations (one per sweep point) fan out across host CPUs
// by default; -parallel 1 forces serial execution. The results are
// bit-identical either way — each simulation is a pure function of its
// configuration. -json emits machine-readable results instead of tables,
// and -bench runs the quick experiments serially and in parallel, checks
// that both agree bit for bit, and writes BENCH_sim.json. -cpuprofile and
// -memprofile write standard pprof profiles of the host process. A failed
// verification (a checksum, an audit, a checker) exits 1, with or without
// -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/stats"
	"metalsvm/internal/svm"
)

// env is what a command reads from the command line.
type env struct {
	topo       *scc.Config // nil: the paper chip
	rounds     int
	iters      int
	kvRequests int
	kvSeed     uint64
}

// command is one `sccbench <name>` harness. run prints its table (or, with
// res non-nil, fills res for -json) and reports whether its verification
// passed.
type command struct {
	name string
	doc  string
	// topo marks the commands that run on a -chips/-grid machine.
	topo bool
	// alone leaves the command out of `sccbench all`.
	alone bool
	run   func(e env, res *results) bool
}

// commands is the command table; usage and the -chips/-grid check are
// generated from it.
var commands = []command{
	{name: "fig6", doc: "mail latency vs mesh distance (Figure 6)", topo: true, run: fig6},
	{name: "fig7", doc: "mail latency vs activated cores (Figure 7)", topo: true, run: fig7},
	{name: "table1", doc: "SVM overheads (Table 1)", run: table1},
	{name: "fig9", doc: "Laplace runtimes (Figure 9)", topo: true, run: fig9},
	{name: "scale", doc: "Laplace + task farm completion on every core", topo: true, run: scale},
	{name: "ablation", doc: "WCB / scratchpad / next-touch / read-only-L2 studies", run: ablation},
	{name: "comm", doc: "RCCE transfer latency and bandwidth vs message size", run: comm},
	{name: "kvstore", doc: "KV store SLO report under chaos schedules (-kv-requests, -kv-seed)", topo: true, alone: true,
		run: func(e env, res *results) bool { return runKVStore(e.kvRequests, e.kvSeed, e.topo, res) }},
}

// commandNames lists the commands, the topology-aware ones only when
// topoOnly is set.
func commandNames(topoOnly bool) string {
	var s []string
	for _, c := range commands {
		if c.topo || !topoOnly {
			s = append(s, c.name)
		}
	}
	return strings.Join(s, "|")
}

func main() { os.Exit(run(os.Args[1:])) }

// run holds the real main so profile teardown runs before the process
// exits (os.Exit skips deferred calls).
func run(args []string) int {
	fs := flag.NewFlagSet("sccbench", flag.ContinueOnError)
	rounds := fs.Int("rounds", 200, "ping-pong rounds per mailbox measurement")
	chips := fs.Int("chips", 1, "number of chips coupled by the inter-chip link (1 = the paper's single chip)")
	grid := fs.String("grid", "", "per-chip tile grid as `WxHxC` (width x height x cores per tile; empty = the paper's 6x4x2)")
	iters := fs.Int("iters", 50, "Laplace iterations (paper: 5000; per-iteration cost is constant, so crossovers are preserved)")
	fullLaplace := fs.Bool("full", false, "run the Laplace benchmark with the paper's full 5000 iterations (slow)")
	check := fs.Bool("check", false, "run the happens-before race checker over every workload and exit non-zero on races")
	sanitize := fs.Bool("sanitize", false, "run the sanitizer suite (shadow memory, locksets, lock-order graph) over every workload and exit non-zero on findings")
	baseline := fs.Bool("baseline", false, "with -bench: require simulated results to match the committed BENCH_sim.json bit for bit")
	chaos := fs.String("chaos", "", "run the chaos harness with `seed[,spec]`: representative cells under deterministic fault injection (specs: corrupt, crash, delays, drops, light, mixed, partition; crash and mixed also run the replicated-directory failover cells; partition adds the link-outage cells)")
	kvRequests := fs.Int("kv-requests", 20000, "with the kvstore command: total requests across all client cores")
	kvSeed := fs.Uint64("kv-seed", 1, "with the kvstore command: workload seed (same seed replays bit-identically)")
	parallel := fs.Int("parallel", 0, "max simulations in flight (0 = one per host CPU, 1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a host heap profile to `file` at exit")
	jsonOut := fs.Bool("json", false, "emit results as JSON instead of tables")
	benchMode := fs.Bool("bench", false, "run the quick experiments serially and on the parallel runner, verify both agree bit-exactly, and write BENCH_sim.json")
	metricsFlag := fs.Bool("metrics", false, "run one representative instrumented cell of the chosen harness and print the metrics snapshot")
	profileFlag := fs.Bool("profile", false, "run one representative instrumented cell of the chosen harness and print the simulated-time profile")
	perfettoOut := fs.String("perfetto", "", "write the instrumented run as Chrome trace-event JSON to this `file` (Perfetto-loadable; 'all' adds a per-harness suffix)")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "usage: sccbench [flags] %s|all\n", commandNames(false))
		for _, c := range commands {
			fmt.Fprintf(w, "       sccbench %-9s %s\n", c.name, c.doc)
		}
		fmt.Fprintf(w, "       sccbench -chips N -grid WxHxC %s\n", commandNames(true))
		fmt.Fprintf(w, "       sccbench [-chips N -grid WxHxC] -check|-sanitize  (cells: %s)\n",
			names(enumerate(modeRace|modePerturb|modeSanitize, nil), ", "))
		fmt.Fprintf(w, "       sccbench [-chips N -grid WxHxC] -chaos seed[,spec]  (cells: %s)\n",
			names(enumerate(modeChaos, nil), ", "))
		fmt.Fprintf(w, "       sccbench -bench [-baseline]\n")
		fmt.Fprintf(w, "       sccbench -metrics|-profile|-perfetto out.json %s|all\n",
			names(enumerate(modeObserve, nil), "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	topo, err := parseTopology(*chips, *grid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: -memprofile: %v\n", err)
			}
		}()
	}
	bench.SetParallelism(*parallel)
	if *check {
		return exitCode(runCheck(*parallel, topo))
	}
	if *sanitize {
		return exitCode(runSanitize(*parallel, topo))
	}
	if *chaos != "" {
		return runChaos(*chaos, *rounds, *iters, topo, *jsonOut)
	}
	if *benchMode {
		if topo != nil {
			fmt.Fprintf(os.Stderr, "sccbench: -bench measures the committed paper-chip baseline; drop -chips/-grid\n")
			return 2
		}
		return runBench(*parallel, *baseline)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	name := fs.Arg(0)
	n := *iters
	if *fullLaplace {
		n = 5000
	}
	oc := observeConfig{metrics: *metricsFlag, profile: *profileFlag, perfetto: *perfettoOut}
	if oc.enabled() {
		if topo != nil {
			fmt.Fprintf(os.Stderr, "sccbench: the instrumented cells run on the paper chip; drop -chips/-grid\n")
			return 2
		}
		return runObserve(name, *rounds, n, oc)
	}
	var selected []command
	for _, c := range commands {
		if c.name == name || (name == "all" && !c.alone) {
			selected = append(selected, c)
		}
	}
	if selected == nil {
		fs.Usage()
		return 2
	}
	for _, c := range selected {
		if topo != nil && !c.topo {
			fmt.Fprintf(os.Stderr, "sccbench: %s is defined on the paper chip; use %s with -chips/-grid\n",
				c.name, commandNames(true))
			return 2
		}
	}
	return runCommands(selected, env{topo: topo, rounds: *rounds, iters: n, kvRequests: *kvRequests, kvSeed: *kvSeed}, *jsonOut)
}

// runCommands runs the selected commands in order — tables separated by a
// blank line, or one JSON document — and returns the exit code: 1 when any
// command's verification failed.
func runCommands(selected []command, e env, jsonOut bool) int {
	var res *results
	if jsonOut {
		res = &results{}
	}
	ok := true
	for i, c := range selected {
		if i > 0 && res == nil {
			fmt.Println()
		}
		ok = c.run(e, res) && ok
	}
	if res != nil {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	return exitCode(ok)
}

// exitCode maps a verification verdict to the process exit code.
func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// parseTopology builds the machine configuration from the -chips and -grid
// flags. Both at their defaults returns nil — the stock paper chip, leaving
// every legacy code path untouched.
func parseTopology(chips int, grid string) (*scc.Config, error) {
	if chips <= 1 && grid == "" {
		return nil, nil
	}
	base := scc.PaperSCC()
	if grid != "" {
		var w, h, c int
		if n, err := fmt.Sscanf(grid, "%dx%dx%d", &w, &h, &c); n != 3 || err != nil {
			return nil, fmt.Errorf("-grid %q: want WxHxC, e.g. 8x8x2", grid)
		}
		base = scc.Grid(w, h, c)
	}
	cfg := base
	if chips > 1 {
		cfg = scc.MultiChip(chips, base)
	}
	cfg = cfg.Normalized()
	if err := scc.Validate(cfg); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// smokeMembers picks a small member set that still spans every chip of the
// topology. The racecheck and chaos application cells deliberately share
// pages between ranks, so their cost under the strong model grows
// superlinearly with the worker count (the matmul cell falls off a cliff
// past four sharers of its hot page); booting all cores of a 512-core
// machine would melt the smoke runs without exercising any new protocol
// path. Four cores spread over the chips (at least one per chip) keep the
// inter-chip link in play while every cell stays within the page-ownership
// regime the single-chip smoke runs in.
func smokeMembers(topo scc.Config) []int {
	cfg := topo.Normalized()
	per := 4 / cfg.Chips
	if per < 1 {
		per = 1
	}
	if cpc := cfg.Mesh.Width * cfg.Mesh.Height * cfg.Mesh.CoresPerTile; per > cpc {
		per = cpc
	}
	var members []int
	for ch := 0; ch < cfg.Chips; ch++ {
		members = append(members, core.ChipCores(cfg, ch)[:per]...)
	}
	return members
}

// results collects experiment outputs when -json is set; a nil *results
// selects the human-readable tables.
type results struct {
	Fig6     []bench.Fig6Point  `json:"fig6,omitempty"`
	Fig7     []bench.Fig7Point  `json:"fig7,omitempty"`
	Table1   *table1Results     `json:"table1,omitempty"`
	Fig9     *fig9Results       `json:"fig9,omitempty"`
	Scale    *bench.ScaleResult `json:"scale,omitempty"`
	Ablation *ablationResults   `json:"ablation,omitempty"`
	Comm     []bench.CommPoint  `json:"comm,omitempty"`
	KVStore  *kvstoreResults    `json:"kvstore,omitempty"`
}

type table1Results struct {
	Strong bench.Table1Result `json:"strong"`
	Lazy   bench.Table1Result `json:"lazy"`
}

type fig9Results struct {
	Iters  int               `json:"iters"`
	Points []bench.Fig9Point `json:"points"`
}

type ablationResults struct {
	WCBEnabledUS        float64 `json:"wcb_enabled_us"`
	WCBDisabledUS       float64 `json:"wcb_disabled_us"`
	ScratchpadMPBUS     float64 `json:"scratchpad_mpb_us"`
	ScratchpadOffDieUS  float64 `json:"scratchpad_offdie_us"`
	NextTouchRemoteUS   float64 `json:"nexttouch_remote_us"`
	NextTouchLocalUS    float64 `json:"nexttouch_local_us"`
	ReadOnlyWritableUS  float64 `json:"readonly_writable_us"`
	ReadOnlyProtectedUS float64 `json:"readonly_protected_us"`
}

func fig6(e env, res *results) bool {
	points := bench.Fig6(e.rounds, e.topo)
	if res != nil {
		res.Fig6 = points
		return true
	}
	fmt.Println("Figure 6: average mail latency according to the distance")
	fmt.Println("(half round-trip, two active cores, " + fmt.Sprint(e.rounds) + " rounds)")
	t := stats.NewTable("hops", "peer core", "polling [us]", "IPI [us]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Hops), fmt.Sprint(p.Peer), stats.US(p.PollingUS), stats.US(p.IPIUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: both curves linear in hops with a shallow slope;")
	fmt.Println("the IPI curve sits a small constant (interrupt entry) above polling.")
	return true
}

func fig7(e env, res *results) bool {
	points := bench.Fig7(e.rounds, nil, e.topo)
	if res != nil {
		res.Fig7 = points
		return true
	}
	peer, hops := bench.Fig7Peer(e.topo)
	fmt.Printf("Figure 7: average mail latency between core 0 and core %d (%d hops)\n", peer, hops)
	t := stats.NewTable("cores", "polling [us]", "IPI [us]", "IPI+noise [us]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Cores), stats.US(p.PollingUS), stats.US(p.IPIUS), stats.US(p.IPINoiseUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: polling grows linearly with the number of activated")
	fmt.Println("cores (every buffer is checked); both IPI curves stay flat and close.")
	return true
}

func table1(_ env, res *results) bool {
	s, l := bench.Table1Both()
	if res != nil {
		res.Table1 = &table1Results{Strong: s, Lazy: l}
		return true
	}
	fmt.Println("Table 1: average overhead by using the SVM system")
	t := stats.NewTable("operation", "strong [us]", "lazy release [us]", "paper strong", "paper lazy")
	t.AddRow("allocation of 4 MByte", stats.US(s.AllocUS), stats.US(l.AllocUS), "741.0", "741.0")
	t.AddRow("physical allocation of a page frame", stats.US(s.PhysAllocUS), stats.US(l.PhysAllocUS), "112.301", "112.296")
	t.AddRow("mapping of a page frame", stats.US(s.MapUS), stats.US(l.MapUS), "10.198", "2.418")
	t.AddRow("retrieve the access permission", stats.US(s.RetrieveUS), "-", "8.990", "-")
	fmt.Print(t)
	return true
}

func fig9(e env, res *results) bool {
	iters := e.iters
	cfg := bench.PaperFig9(iters)
	if e.topo != nil {
		cfg = bench.ScaledFig9(*e.topo, iters)
	}
	points := bench.Fig9(cfg)
	if res != nil {
		res.Fig9 = &fig9Results{Iters: iters, Points: points}
		return true
	}
	fmt.Printf("Figure 9: runtimes of the Laplace benchmark (1024x512 doubles, %d iterations)\n", iters)
	if iters != 5000 {
		fmt.Printf("(paper runs 5000 iterations; multiply by %.1f to compare absolute runtimes)\n",
			5000/float64(iters))
	}
	t := stats.NewTable("cores", "iRCCE [ms]", "SVM strong [ms]", "SVM lazy [ms]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Cores), stats.MS(p.IRCCEUS), stats.MS(p.StrongUS), stats.MS(p.LazyUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: both SVM curves nearly identical; SVM below iRCCE up to")
	fmt.Println("32 cores (write-combine buffer); iRCCE superlinear past 32 cores (both")
	fmt.Println("array slices fit its L2, which the SVM variants sacrifice for the WCB).")
	return true
}

// scale runs the multi-chip completion harness: the Laplace solver and the
// task farm on every core of the topology (the stock chip when no -chips/
// -grid is given), with exact checksum verification.
func scale(e env, res *results) bool {
	cfg := scc.PaperSCC()
	if e.topo != nil {
		cfg = *e.topo
	}
	r := bench.RunScale(cfg, bench.ScaleParams{Model: svm.LazyRelease})
	ok := r.LaplaceOK && r.FarmOK
	if res != nil {
		res.Scale = &r
		return ok
	}
	fmt.Printf("Scale-out: Laplace + task farm on all %d cores (%d chip(s), lazy release)\n",
		r.Cores, r.Chips)
	verdict := func(ok bool) string {
		if ok {
			return "exact"
		}
		return "WRONG"
	}
	t := stats.NewTable("workload", "loop [ms]", "result")
	t.AddRow("laplace (1024x512, 2 iters)", stats.MS(r.LaplaceUS), verdict(r.LaplaceOK))
	t.AddRow(fmt.Sprintf("task farm (%d tasks)", 2*r.Cores), stats.MS(r.FarmUS), verdict(r.FarmOK))
	fmt.Print(t)
	fmt.Printf("inter-chip link crossings: %d\n", r.LinkCrossings)
	if !ok {
		fmt.Println("scale: CHECKSUM MISMATCH")
	}
	return ok
}

func ablation(e env, res *results) bool {
	with, without := bench.AblationWCB(e.iters, 8)
	mpb, offDie := bench.AblationScratchpad(256)
	remote, local := bench.AblationNextTouch(16, 8)
	writable, readonly := bench.AblationReadOnlyL2(16, 8)
	if res != nil {
		res.Ablation = &ablationResults{
			WCBEnabledUS:        with,
			WCBDisabledUS:       without,
			ScratchpadMPBUS:     mpb,
			ScratchpadOffDieUS:  offDie,
			NextTouchRemoteUS:   remote,
			NextTouchLocalUS:    local,
			ReadOnlyWritableUS:  writable,
			ReadOnlyProtectedUS: readonly,
		}
		return true
	}
	fmt.Println("Ablation: write-combine buffer (lazy release, 8 cores)")
	t := stats.NewTable("configuration", "laplace loop [ms]")
	t.AddRow("WCB enabled (MetalSVM)", stats.MS(with))
	t.AddRow("WCB disabled (plain write-through)", stats.MS(without))
	fmt.Print(t)

	fmt.Println("\nAblation: first-touch directory location (Section 6.3)")
	t = stats.NewTable("scratchpad location", "map existing page [us]")
	t.AddRow("on-die MPB (16-bit entries, 256 MiB cap)", stats.US(mpb))
	t.AddRow("off-die DDR (no cap, slower lookups)", stats.US(offDie))
	fmt.Print(t)

	fmt.Println("\nAblation: affinity-on-next-touch (Section 8 outlook)")
	t = stats.NewTable("frame placement", "cold scan of 16 pages [us]")
	t.AddRow("remote controller (as first-touched)", stats.US(remote))
	t.AddRow("local controller (after next-touch)", stats.US(local))
	fmt.Print(t)

	fmt.Println("\nAblation: read-only regions re-enable the L2 (Section 6.4)")
	t = stats.NewTable("region state", "scan of 16 pages [us]")
	t.AddRow("writable (MPBT: L1 only)", stats.US(writable))
	t.AddRow("read-only (MPBT cleared: L2 enabled)", stats.US(readonly))
	fmt.Print(t)

	fmt.Println("\nAblation: mailbox IPI vs polling -> see fig6/fig7")
	return true
}

func comm(e env, res *results) bool {
	points := bench.CommSweep(30, nil, e.rounds/4+1)
	if res != nil {
		res.Comm = points
		return true
	}
	fmt.Println("Supplementary: RCCE transfer path, core 0 -> core 30 (5 hops)")
	t := stats.NewTable("bytes", "latency [us]", "bandwidth [MB/s]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Bytes), stats.US(p.LatencyUS), fmt.Sprintf("%.1f", p.MBPerSec))
	}
	fmt.Print(t)
	fmt.Println("expected shape: flat latency until the staging slot fills, then")
	fmt.Println("linear in size; bandwidth saturates at the MPB pull path's rate.")
	return true
}
