// Command sccbench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the simulated SCC platform, plus the ablation
// studies DESIGN.md calls out.
//
// Usage:
//
//	sccbench fig6            mail latency vs mesh distance (Figure 6)
//	sccbench fig7            mail latency vs activated cores (Figure 7)
//	sccbench table1          SVM overheads (Table 1)
//	sccbench fig9            Laplace runtimes (Figure 9)
//	sccbench scale           Laplace + task farm completion on every core
//	sccbench ablation        WCB / scratchpad / read-only-L2 studies
//	sccbench all             everything above
//
// Flags tune the measurement sizes; the defaults give the paper's shapes
// in well under a coffee break. All times are simulated (533 MHz cores,
// 800 MHz mesh and memory, as in the paper's test platform).
//
// -chips and -grid select a different machine through the validated
// topology API: -grid WxHxC reshapes each chip's tile grid and -chips N
// couples N such chips over the inter-chip link. The topology-aware
// harnesses (fig6, fig7, fig9, scale, -check, -chaos) then run on that
// machine — e.g. `sccbench -chips 4 -grid 8x8x2 scale` boots 512 cores.
//
// Independent simulations (one per sweep point) fan out across host CPUs
// by default; -parallel 1 forces serial execution. The results are
// bit-identical either way — each simulation is a pure function of its
// configuration. -json emits machine-readable results instead of tables,
// and -bench runs the quick experiments serially and in parallel, checks
// that both agree bit for bit, and writes BENCH_sim.json. -cpuprofile and
// -memprofile write standard pprof profiles of the host process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/stats"
	"metalsvm/internal/svm"
)

func main() { os.Exit(run()) }

// run holds the real main so profile teardown runs before the process
// exits (os.Exit skips deferred calls).
func run() int {
	rounds := flag.Int("rounds", 200, "ping-pong rounds per mailbox measurement")
	chips := flag.Int("chips", 1, "number of chips coupled by the inter-chip link (1 = the paper's single chip)")
	grid := flag.String("grid", "", "per-chip tile grid as `WxHxC` (width x height x cores per tile; empty = the paper's 6x4x2)")
	iters := flag.Int("iters", 50, "Laplace iterations (paper: 5000; per-iteration cost is constant, so crossovers are preserved)")
	fullLaplace := flag.Bool("full", false, "run the Laplace benchmark with the paper's full 5000 iterations (slow)")
	check := flag.Bool("check", false, "run the happens-before race checker over every workload and exit non-zero on races")
	sanitize := flag.Bool("sanitize", false, "run the sanitizer suite (shadow memory, locksets, lock-order graph) over every workload and exit non-zero on findings")
	baseline := flag.Bool("baseline", false, "with -bench: require simulated results to match the committed BENCH_sim.json bit for bit")
	chaos := flag.String("chaos", "", "run the chaos harness with `seed[,spec]`: representative cells under deterministic fault injection (specs: corrupt, crash, delays, drops, light, mixed, partition; crash and mixed also run the replicated-directory failover cells; partition adds the link-outage cells)")
	kvRequests := flag.Int("kv-requests", 20000, "with the kvstore command: total requests across all client cores")
	kvSeed := flag.Uint64("kv-seed", 1, "with the kvstore command: workload seed (same seed replays bit-identically)")
	parallel := flag.Int("parallel", 0, "max simulations in flight (0 = one per host CPU, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a host heap profile to `file` at exit")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	benchMode := flag.Bool("bench", false, "run the quick experiments serially and on the parallel runner, verify both agree bit-exactly, and write BENCH_sim.json")
	metricsFlag := flag.Bool("metrics", false, "run one representative instrumented cell of the chosen harness and print the metrics snapshot")
	profileFlag := flag.Bool("profile", false, "run one representative instrumented cell of the chosen harness and print the simulated-time profile")
	perfettoOut := flag.String("perfetto", "", "write the instrumented run as Chrome trace-event JSON to this `file` (Perfetto-loadable; 'all' adds a per-harness suffix)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sccbench [flags] fig6|fig7|table1|fig9|scale|ablation|kvstore|all\n")
		fmt.Fprintf(os.Stderr, "       sccbench [-kv-requests N -kv-seed S] kvstore  (KV store SLO report under chaos)\n")
		fmt.Fprintf(os.Stderr, "       sccbench -chips N -grid WxHxC fig6|fig7|fig9|scale\n")
		fmt.Fprintf(os.Stderr, "       sccbench [-chips N -grid WxHxC] -check\n")
		fmt.Fprintf(os.Stderr, "       sccbench -sanitize\n")
		fmt.Fprintf(os.Stderr, "       sccbench [-chips N -grid WxHxC] -chaos seed[,spec]\n")
		fmt.Fprintf(os.Stderr, "       sccbench -bench [-baseline]\n")
		fmt.Fprintf(os.Stderr, "       sccbench -metrics|-profile|-perfetto out.json fig6|fig7|table1|fig9|repldir|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
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
		if !runCheck(*parallel, topo) {
			return 1
		}
		return 0
	}
	if *sanitize {
		if !runSanitize(*parallel) {
			return 1
		}
		return 0
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
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	cmd := flag.Arg(0)
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
		return runObserve(cmd, *rounds, n, oc)
	}
	var res *results
	if *jsonOut {
		res = &results{}
	}
	if topo != nil {
		switch cmd {
		case "fig6", "fig7", "fig9", "scale", "kvstore":
		default:
			fmt.Fprintf(os.Stderr, "sccbench: %s is defined on the paper chip; use fig6|fig7|fig9|scale with -chips/-grid\n", cmd)
			return 2
		}
	}
	switch cmd {
	case "fig6":
		fig6(topo, *rounds, res)
	case "fig7":
		fig7(topo, *rounds, res)
	case "table1":
		table1(res)
	case "fig9":
		fig9(topo, n, res)
	case "scale":
		if !scale(topo, res) && res == nil {
			return 1
		}
	case "ablation":
		ablation(n, res)
	case "kvstore":
		if !runKVStore(*kvRequests, *kvSeed, topo, res) && res == nil {
			return 1
		}
	case "comm":
		comm(*rounds, res)
	case "all":
		fig6(topo, *rounds, res)
		sep(res)
		fig7(topo, *rounds, res)
		sep(res)
		table1(res)
		sep(res)
		fig9(topo, n, res)
		sep(res)
		scale(topo, res)
		sep(res)
		ablation(n, res)
		sep(res)
		comm(*rounds, res)
	default:
		flag.Usage()
		return 2
	}
	if res != nil {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	return 0
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

// sep prints the blank line between sections of `sccbench all` in table
// mode only.
func sep(res *results) {
	if res == nil {
		fmt.Println()
	}
}

func fig6(topo *scc.Config, rounds int, res *results) {
	var points []bench.Fig6Point
	if topo != nil {
		points = bench.Fig6On(*topo, rounds)
	} else {
		points = bench.Fig6(rounds)
	}
	if res != nil {
		res.Fig6 = points
		return
	}
	fmt.Println("Figure 6: average mail latency according to the distance")
	fmt.Println("(half round-trip, two active cores, " + fmt.Sprint(rounds) + " rounds)")
	t := stats.NewTable("hops", "peer core", "polling [us]", "IPI [us]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Hops), fmt.Sprint(p.Peer), stats.US(p.PollingUS), stats.US(p.IPIUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: both curves linear in hops with a shallow slope;")
	fmt.Println("the IPI curve sits a small constant (interrupt entry) above polling.")
}

func fig7(topo *scc.Config, rounds int, res *results) {
	var points []bench.Fig7Point
	if topo != nil {
		points = bench.Fig7On(*topo, rounds, nil)
	} else {
		points = bench.Fig7(rounds, nil)
	}
	if res != nil {
		res.Fig7 = points
		return
	}
	peer, hops := 30, 5
	if topo != nil {
		peer, hops = bench.Fig7PeerOn(*topo)
	}
	fmt.Printf("Figure 7: average mail latency between core 0 and core %d (%d hops)\n", peer, hops)
	t := stats.NewTable("cores", "polling [us]", "IPI [us]", "IPI+noise [us]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Cores), stats.US(p.PollingUS), stats.US(p.IPIUS), stats.US(p.IPINoiseUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: polling grows linearly with the number of activated")
	fmt.Println("cores (every buffer is checked); both IPI curves stay flat and close.")
}

func table1(res *results) {
	s, l := bench.Table1Both()
	if res != nil {
		res.Table1 = &table1Results{Strong: s, Lazy: l}
		return
	}
	fmt.Println("Table 1: average overhead by using the SVM system")
	t := stats.NewTable("operation", "strong [us]", "lazy release [us]", "paper strong", "paper lazy")
	t.AddRow("allocation of 4 MByte", stats.US(s.AllocUS), stats.US(l.AllocUS), "741.0", "741.0")
	t.AddRow("physical allocation of a page frame", stats.US(s.PhysAllocUS), stats.US(l.PhysAllocUS), "112.301", "112.296")
	t.AddRow("mapping of a page frame", stats.US(s.MapUS), stats.US(l.MapUS), "10.198", "2.418")
	t.AddRow("retrieve the access permission", stats.US(s.RetrieveUS), "-", "8.990", "-")
	fmt.Print(t)
}

func fig9(topo *scc.Config, iters int, res *results) {
	cfg := bench.PaperFig9(iters)
	if topo != nil {
		cfg = bench.ScaledFig9(*topo, iters)
	}
	points := bench.Fig9(cfg)
	if res != nil {
		res.Fig9 = &fig9Results{Iters: iters, Points: points}
		return
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
}

// scale runs the multi-chip completion harness: the Laplace solver and the
// task farm on every core of the topology (the stock chip when no -chips/
// -grid is given), with exact checksum verification.
func scale(topo *scc.Config, res *results) bool {
	cfg := scc.PaperSCC()
	if topo != nil {
		cfg = *topo
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

func ablation(iters int, res *results) {
	with, without := bench.AblationWCB(iters, 8)
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
		return
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

}

func comm(rounds int, res *results) {
	points := bench.CommSweep(30, nil, rounds/4+1)
	if res != nil {
		res.Comm = points
		return
	}
	fmt.Println("Supplementary: RCCE transfer path, core 0 -> core 30 (5 hops)")
	t := stats.NewTable("bytes", "latency [us]", "bandwidth [MB/s]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Bytes), stats.US(p.LatencyUS), fmt.Sprintf("%.1f", p.MBPerSec))
	}
	fmt.Print(t)
	fmt.Println("expected shape: flat latency until the staging slot fills, then")
	fmt.Println("linear in size; bandwidth saturates at the MPB pull path's rate.")
}
