package repldir_test

import (
	"strings"
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// Two chips of a 2x2x2 grid: 16 cores, the smallest machine where page
// homes stripe over two chips and the directory runs one replica group per
// chip (workers 0-4 and 8-12, managers 5-7 and 13-15).
func twoChipTopo() scc.Config {
	return scc.MultiChip(2, scc.Grid(2, 2, 2))
}

// twoChipParams keeps the one-4KiB-page-per-row geometry at a row count
// that gives each of the ten default workers a few rows.
func twoChipParams() laplace.Params {
	return laplace.Params{Rows: 32, Cols: 512, Iters: 4, TopTemp: 100}
}

// multiChipResult is everything the determinism tests compare between runs.
type multiChipResult struct {
	Checksum float64
	EndUS    float64
	Dir      repldir.Stats
	Faults   faults.Stats
	Link     uint64
}

func runMultiChipLaplace(t *testing.T, model svm.Model, fc *faults.Config) (multiChipResult, *core.Machine) {
	t.Helper()
	topo := twoChipTopo()
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology:            &topo,
		SVM:                 &scfg,
		Faults:              fc,
		ReplicatedDirectory: &repldir.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	app := laplace.NewSVM(twoChipParams(), laplace.SVMOptions{})
	end := m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	if m.Cluster.WatchdogFired() {
		t.Fatalf("watchdog fired:\n%s", m.Cluster.WatchdogReport())
	}
	r := multiChipResult{
		Checksum: app.Result().Checksum,
		EndUS:    end.Microseconds(),
		Dir:      m.Dir.Stats(),
		Link:     m.Chip.MeshStats().LinkCrossings,
	}
	if fc != nil {
		r.Faults = m.Chip.FaultInjector().Stats()
	}
	return r, m
}

// One replica group per chip, managed by that chip's highest cores, with
// chip 0's group listed first (the flat order the crash sentinels rely on).
func TestMultiChipManagerGroups(t *testing.T) {
	r, m := runMultiChipLaplace(t, svm.Strong, nil)
	want := []int{5, 6, 7, 13, 14, 15}
	got := m.Dir.Managers()
	if len(got) != len(want) {
		t.Fatalf("managers %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("managers %v, want %v", got, want)
		}
	}
	if nw := len(m.SVM.Workers()); nw != 10 {
		t.Fatalf("workers %v, want the 10 non-manager cores", m.SVM.Workers())
	}
	if wantSum := laplace.ReferenceChecksum(twoChipParams()); r.Checksum != wantSum {
		t.Fatalf("checksum %v != reference %v", r.Checksum, wantSum)
	}
	if r.Dir.Commits == 0 || r.Dir.Requests == 0 {
		t.Fatalf("directory idle: %+v", r.Dir)
	}
	if r.Dir.ViewChanges != 0 {
		t.Fatalf("spurious view changes without crashes: %+v", r.Dir)
	}
	// Page homes stripe over both chips, so ownership traffic must cross
	// the inter-chip link.
	if r.Link == 0 {
		t.Fatalf("no inter-chip link crossings")
	}
}

// Managers must live on the chip whose group they serve; a group listed
// with foreign cores is a configuration error, not a silent misroute.
func TestMultiChipManagerResidency(t *testing.T) {
	topo := twoChipTopo()
	scfg := svm.DefaultConfig(svm.Strong)
	_, err := core.NewMachine(core.Options{
		Topology: &topo,
		SVM:      &scfg,
		// Six free manager cores, but the groups are swapped: chip 0's
		// trio is given chip-1 cores and vice versa.
		ReplicatedDirectory: &repldir.Config{Managers: []int{13, 14, 15, 5, 6, 7}},
	})
	if err == nil || !strings.Contains(err.Error(), "chip") {
		t.Fatalf("foreign-chip manager group accepted: %v", err)
	}
}

// Crashing both group primaries mid-run must fail each group over to its
// backup and still produce the exact reference checksum. The crash instant
// comes from a crash-free calibration run, as in bench.DirCrash.
func TestMultiChipFailover(t *testing.T) {
	cal, calM := runMultiChipLaplace(t, svm.Strong, nil)
	if want := laplace.ReferenceChecksum(twoChipParams()); cal.Checksum != want {
		t.Fatalf("calibration checksum %v != reference %v", cal.Checksum, want)
	}
	primaries := []int{calM.Dir.Managers()[0], calM.Dir.Managers()[repldir.ReplicaCount]}
	fc := &faults.Config{Seed: 3, Spec: faults.Spec{
		Crashes: []faults.Crash{
			{Core: primaries[0], AtUS: 0.4 * cal.EndUS},
			{Core: primaries[1], AtUS: 0.4 * cal.EndUS},
		},
	}}
	r, _ := runMultiChipLaplace(t, svm.Strong, fc)
	if want := laplace.ReferenceChecksum(twoChipParams()); r.Checksum != want {
		t.Fatalf("post-failover checksum %v != reference %v", r.Checksum, want)
	}
	if r.Faults.Crashes != 2 {
		t.Fatalf("schedule crashed %d cores, want both primaries: %+v", r.Faults.Crashes, r.Faults)
	}
	// Both groups lost their primary, so each must have completed a view
	// change.
	if r.Dir.ViewChanges < 2 {
		t.Fatalf("expected a failover in each chip's group: %+v", r.Dir)
	}

	// Same seed, same schedule: the replay must be bit-identical.
	again, _ := runMultiChipLaplace(t, svm.Strong, fc)
	if r != again {
		t.Fatalf("same-seed multi-chip crash replay diverged:\n  first  %+v\n  second %+v", r, again)
	}
}

// The fault-free multi-chip run is a pure function of the topology: two
// runs agree on every counter and on the simulated end time.
func TestMultiChipReplayDeterminism(t *testing.T) {
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		a, _ := runMultiChipLaplace(t, model, nil)
		b, _ := runMultiChipLaplace(t, model, nil)
		if a != b {
			t.Fatalf("%v: fault-free multi-chip replay diverged:\n  first  %+v\n  second %+v", model, a, b)
		}
	}
}

// The diagnostics dump must name each chip's replica group.
func TestMultiChipDumpFormat(t *testing.T) {
	_, m := runMultiChipLaplace(t, svm.Strong, nil)
	var sb strings.Builder
	m.Dir.DumpDiagnostics(&sb)
	out := sb.String()
	for _, want := range []string{"chip 0 managers=[5 6 7]", "chip 1 managers=[13 14 15]", "dir stats:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
