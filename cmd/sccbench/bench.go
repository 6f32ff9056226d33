package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"

	"metalsvm/internal/bench"
	"metalsvm/internal/bench/runner"
	"metalsvm/internal/cpu"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/stats"
)

// benchReportFile is where -bench writes its machine-readable report.
const benchReportFile = "BENCH_sim.json"

// benchExperiment is one quick-configuration experiment the -bench mode
// times. run must be a pure function of the bench parallelism; simUS converts its result to total simulated
// microseconds (for latency sweeps this is reconstructed from the reported
// averages, so sim_cycles_per_sec is a throughput proxy, not an exact
// retirement count).
type benchExperiment struct {
	name  string
	run   func() any
	simUS func(any) float64
}

func benchExperiments() []benchExperiment {
	const fig6Rounds = 50
	fig9Cfg := bench.PaperFig9(3)
	fig9Cfg.CoreCounts = []int{4, 8}
	return []benchExperiment{
		{
			name: "fig6",
			run:  func() any { return bench.Fig6(fig6Rounds, nil) },
			simUS: func(v any) float64 {
				us := 0.0
				for _, p := range v.([]bench.Fig6Point) {
					us += (p.PollingUS + p.IPIUS) * fig6Rounds
				}
				return us
			},
		},
		{
			name: "table1",
			run: func() any {
				s, l := bench.Table1Both()
				return table1Results{Strong: s, Lazy: l}
			},
			simUS: func(v any) float64 {
				r := v.(table1Results)
				pages := float64(bench.Table1Bytes / pgtable.PageSize)
				us := 0.0
				for _, m := range []bench.Table1Result{r.Strong, r.Lazy} {
					us += m.AllocUS + (m.PhysAllocUS+m.MapUS+m.RetrieveUS)*pages
				}
				return us
			},
		},
		{
			name: "fig9-quick",
			run:  func() any { return bench.Fig9(fig9Cfg) },
			simUS: func(v any) float64 {
				us := 0.0
				for _, p := range v.([]bench.Fig9Point) {
					us += p.IRCCEUS + p.StrongUS + p.LazyUS
				}
				return us
			},
		},
	}
}

// benchSimRecord is one experiment's bit-exact simulated result. These
// fields are pure functions of the experiment configuration — identical on
// every machine and at every parallelism — and are the only fields
// -baseline compares against the committed BENCH_sim.json.
type benchSimRecord struct {
	Experiment  string  `json:"experiment"`
	SimulatedUS float64 `json:"simulated_us"`
}

// benchHostRecord is one experiment's host wall-clock measurements. These
// drift between machines and runs and are never part of the baseline
// comparison; perfbench/ is the repository's host-time instrument. The
// serial and host-parallel runs must produce bit-identical simulation
// results; -bench exits non-zero if not.
type benchHostRecord struct {
	Experiment      string  `json:"experiment"`
	SerialSec       float64 `json:"serial_sec"`
	ParallelSec     float64 `json:"parallel_sec"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	ParallelMatches bool    `json:"parallel_matches_serial"`
}

type benchReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// HostParallelMeaningful is false when the process cannot actually run
	// anything concurrently (GOMAXPROCS=1) or was asked not to (one worker):
	// the parallel wall-clock column then measures scheduling overhead, not
	// speedup, and must not be read as such.
	HostParallelMeaningful bool              `json:"host_parallel_meaningful"`
	Note                   string            `json:"note,omitempty"`
	Simulated              []benchSimRecord  `json:"simulated"`
	Host                   []benchHostRecord `json:"host"`
}

// runBench runs each quick experiment serially and on the host-parallel
// runner, verifies the two agree bit-exactly, prints a summary, and writes
// BENCH_sim.json with the bit-exact simulated fields separated from the
// machine-dependent wall-clock fields. With baseline set, the fresh
// simulated results are first diffed bit-for-bit against the committed
// BENCH_sim.json (which is left untouched on mismatch, so the drift stays
// inspectable). Returns the process exit code.
func runBench(workers int, baseline bool) int {
	report := benchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    runner.New(workers).Workers(),
	}
	report.HostParallelMeaningful = report.GOMAXPROCS > 1 && report.Workers > 1
	if !report.HostParallelMeaningful {
		report.Note = "host-parallel wall-clock numbers are NOT meaningful: " +
			"the process runs at most one simulation goroutine at a time " +
			"(GOMAXPROCS=1 or a single worker); simulated results are unaffected"
	}
	// Simulated core cycles per reported microsecond (533 MHz cores).
	cyclesPerUS := 1e6 / float64(cpu.DefaultConfig().Clock.PeriodPS)

	fmt.Printf("sccbench -bench: %d worker(s) on GOMAXPROCS=%d\n", report.Workers, report.GOMAXPROCS)
	exit := 0
	for _, ex := range benchExperiments() {
		var serial, par any
		bench.SetParallelism(1)
		serialSec := runner.Wall(func() { serial = ex.run() }).Seconds()
		bench.SetParallelism(workers)
		parSec := runner.Wall(func() { par = ex.run() }).Seconds()

		rec := benchHostRecord{
			Experiment:      ex.name,
			SerialSec:       serialSec,
			ParallelSec:     parSec,
			ParallelSpeedup: serialSec / parSec,
			ParallelMatches: reflect.DeepEqual(serial, par),
		}
		sim := benchSimRecord{Experiment: ex.name, SimulatedUS: ex.simUS(serial)}
		rec.SimCyclesPerSec = sim.SimulatedUS * cyclesPerUS / parSec
		report.Simulated = append(report.Simulated, sim)
		report.Host = append(report.Host, rec)
		if !rec.ParallelMatches {
			fmt.Fprintf(os.Stderr, "sccbench -bench: %s: parallel run DIVERGES from the serial run\n", ex.name)
			exit = 1
		}
	}

	t := stats.NewTable("experiment", "serial [s]", "parallel [s]", "parallel x", "Mcycles/s")
	for _, r := range report.Host {
		t.AddRow(r.Experiment,
			fmt.Sprintf("%.2f", r.SerialSec),
			fmt.Sprintf("%.2f", r.ParallelSec),
			fmt.Sprintf("%.2f", r.ParallelSpeedup),
			fmt.Sprintf("%.1f", r.SimCyclesPerSec/1e6))
	}
	fmt.Print(t)
	if report.Note != "" {
		fmt.Println("note:", report.Note)
	}
	if exit == 0 {
		fmt.Println("serial and parallel runs bit-identical")
	}

	if baseline {
		if err := diffBaseline(report); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench -bench -baseline: %v\n", err)
			return 1
		}
		fmt.Printf("simulated results match the committed %s bit for bit\n", benchReportFile)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench -bench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(benchReportFile, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sccbench -bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", benchReportFile)
	return exit
}

// diffBaseline compares the fresh report's simulated microseconds against
// the committed BENCH_sim.json, in both directions: every fresh experiment
// must match its baseline entry, and every baseline experiment must have
// run. Simulated time is a pure function of the configuration, so the
// comparison is bit-exact; host wall-clock columns are expected to drift
// between machines and are ignored.
func diffBaseline(report benchReport) error {
	data, err := os.ReadFile(benchReportFile)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", benchReportFile, err)
	}
	prev := make(map[string]float64, len(base.Simulated))
	for _, r := range base.Simulated {
		prev[r.Experiment] = r.SimulatedUS
	}
	ran := make(map[string]bool, len(report.Simulated))
	for _, r := range report.Simulated {
		ran[r.Experiment] = true
		want, ok := prev[r.Experiment]
		if !ok {
			return fmt.Errorf("experiment %q missing from baseline %s: regenerate and commit it",
				r.Experiment, benchReportFile)
		}
		if r.SimulatedUS != want {
			return fmt.Errorf("experiment %q: simulated_us = %v, baseline says %v: "+
				"the simulation drifted; if intentional, regenerate %s with -bench and commit it",
				r.Experiment, r.SimulatedUS, want, benchReportFile)
		}
	}
	for _, r := range base.Simulated {
		if !ran[r.Experiment] {
			return fmt.Errorf("baseline experiment %q did not run: "+
				"if it was removed on purpose, regenerate %s with -bench and commit it",
				r.Experiment, benchReportFile)
		}
	}
	return nil
}
