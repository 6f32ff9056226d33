package core

import (
	"strings"
	"testing"

	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/faults"
	"metalsvm/internal/sim"
)

// chaosLaplace runs a small shared-memory Laplace instance under the given
// fault config and returns the end time, the result and the machine.
func chaosLaplace(t *testing.T, fc *faults.Config) (sim.Time, laplace.Result, *Machine) {
	t.Helper()
	p := laplace.Params{Rows: 24, Cols: 16, Iters: 20, TopTemp: 100}
	app := laplace.NewSVM(p, laplace.SVMOptions{})
	m, err := NewMachine(Options{Topology: smallChip(), Members: FirstN(4), Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	end := m.RunAll(func(env *Env) { app.Main(env.SVM) })
	return end, app.Result(), m
}

// TestFaultsDisabledZeroPerturbation is the zero-perturbation cell: a
// machine built with a present-but-disabled fault config (empty schedule,
// hardening off) must reproduce the plain machine bit for bit.
func TestFaultsDisabledZeroPerturbation(t *testing.T) {
	plainEnd, plainRes, _ := chaosLaplace(t, nil)
	disabledEnd, disabledRes, m := chaosLaplace(t, &faults.Config{Seed: 99, NoHarden: true})
	if plainEnd != disabledEnd {
		t.Fatalf("disabled injector perturbed time: %d vs %d", plainEnd, disabledEnd)
	}
	if plainRes != disabledRes {
		t.Fatalf("disabled injector perturbed result: %+v vs %+v", plainRes, disabledRes)
	}
	if m.Chip.FaultInjector().Stats().Decisions != 0 {
		t.Fatalf("disabled injector drew randomness: %+v", m.Chip.FaultInjector().Stats())
	}
	want := laplace.ReferenceChecksum(laplace.Params{Rows: 24, Cols: 16, Iters: 20, TopTemp: 100})
	if plainRes.Checksum != want {
		t.Fatalf("plain checksum %v != reference %v", plainRes.Checksum, want)
	}
}

// TestChaosDeterministicReplay runs the same seed and schedule twice and
// requires bit-identical end times, results and fault statistics.
func TestChaosDeterministicReplay(t *testing.T) {
	cfg := func() *faults.Config {
		spec, _ := faults.PresetSpec("mixed")
		spec.Routes[faults.Mail].DropPermille = 100
		return &faults.Config{Seed: 2026, Spec: spec}
	}
	endA, resA, mA := chaosLaplace(t, cfg())
	endB, resB, mB := chaosLaplace(t, cfg())
	if endA != endB {
		t.Fatalf("same seed diverged in time: %d vs %d", endA, endB)
	}
	if resA != resB {
		t.Fatalf("same seed diverged in result: %+v vs %+v", resA, resB)
	}
	if sA, sB := mA.Chip.FaultInjector().Stats(), mB.Chip.FaultInjector().Stats(); sA != sB {
		t.Fatalf("same seed diverged in fault stats: %+v vs %+v", sA, sB)
	}
}

// TestChaosLaplaceRecovers injects a mixed schedule with an elevated mail
// drop rate and requires the application to finish with the exact reference
// checksum, nonzero injected faults and nonzero recovery activity, without
// tripping the watchdog.
func TestChaosLaplaceRecovers(t *testing.T) {
	spec, _ := faults.PresetSpec("mixed")
	spec.Routes[faults.Mail].DropPermille = 100
	_, res, m := chaosLaplace(t, &faults.Config{Seed: 7, Spec: spec})
	want := laplace.ReferenceChecksum(laplace.Params{Rows: 24, Cols: 16, Iters: 20, TopTemp: 100})
	if res.Checksum != want {
		t.Fatalf("faulted checksum %v != reference %v", res.Checksum, want)
	}
	fs := m.Chip.FaultInjector().Stats()
	if fs.Injected() == 0 {
		t.Fatal("schedule injected nothing")
	}
	mbs := m.Cluster.Mailbox().Stats()
	recoveries := mbs.Retransmits + mbs.Renudges + mbs.CorruptDrops + mbs.DupFrames
	if recoveries == 0 {
		t.Fatalf("no recovery activity despite %d injected faults: %+v", fs.Injected(), mbs)
	}
	if m.Cluster.WatchdogFired() {
		t.Fatalf("watchdog fired on a recovering run:\n%s", m.Cluster.WatchdogReport())
	}
}

// TestChaosFaultedMatchesFaultFree checks the recovery machinery is
// functionally transparent: the faulted-and-recovered run computes the same
// grid as a hardened fault-free run (timing differs, values must not).
func TestChaosFaultedMatchesFaultFree(t *testing.T) {
	spec, _ := faults.PresetSpec("drops")
	_, faulted, _ := chaosLaplace(t, &faults.Config{Seed: 5, Spec: spec})
	_, clean, _ := chaosLaplace(t, &faults.Config{Seed: 5})
	if faulted.Checksum != clean.Checksum {
		t.Fatalf("faulted checksum %v != fault-free %v", faulted.Checksum, clean.Checksum)
	}
}

// TestWatchdogFiresOnStuckCluster disables hardening, drops every mail and
// checks the watchdog detects the frozen barrier, stops the run and leaves a
// diagnostic report instead of hanging.
func TestWatchdogFiresOnStuckCluster(t *testing.T) {
	var spec faults.Spec
	spec.Routes[faults.Mail].DropPermille = 1000
	m, err := NewMachine(Options{Topology: smallChip(), Members: []int{0, 1},
		Faults: &faults.Config{Seed: 1, Spec: spec, NoHarden: true}})
	if err != nil {
		t.Fatal(err)
	}
	m.RunAll(func(env *Env) { env.K.Barrier() })
	if !m.Cluster.WatchdogFired() {
		t.Fatal("watchdog did not fire on a stuck cluster")
	}
	rep := m.Cluster.WatchdogReport()
	if !strings.Contains(rep, "mailbox") || !strings.Contains(rep, "watchdog") {
		t.Fatalf("diagnostic report incomplete:\n%s", rep)
	}
}

// TestWatchdogDumpSections wedges core 1 inside a strong-model ownership
// acquisition (the owner-request mail chain loses a frame with hardening
// off) and checks the watchdog report carries every diagnostic layer: the
// per-kernel state lines, the mailbox in-flight dump, and the SVM section
// down to the owner-vector entry of the page being acquired. The seed is
// chosen so the collective-alloc barrier survives the drops but the
// ownership transfer does not.
func TestWatchdogDumpSections(t *testing.T) {
	var spec faults.Spec
	spec.Routes[faults.Mail].DropPermille = 400
	m, err := NewMachine(Options{Topology: smallChip(), Members: []int{0, 1},
		Faults: &faults.Config{Seed: 1, Spec: spec, NoHarden: true}})
	if err != nil {
		t.Fatal(err)
	}
	m.RunAll(func(env *Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == 0 {
			env.Core().Store64(base, 1) // first touch: core 0 owns the page
		}
		env.Core().Cycles(100000) // let the owner settle before core 1 faults
		if env.K.ID() == 1 {
			env.Core().Store64(base, 2) // must acquire from core 0 over mail
		}
		env.K.Barrier()
	})
	if !m.Cluster.WatchdogFired() {
		t.Fatal("watchdog did not fire on the wedged acquisition")
	}
	rep := m.Cluster.WatchdogReport()
	for _, want := range []string{
		"watchdog: no cluster progress",
		"kernel 0:", "kernel 1:", // per-kernel state
		"mailbox:",     // in-flight mail dump
		"svm (",        // SVM diagnostic section
		"inFault",      // the stuck handle's wait state
		"owner vector", // the contested page's owner entry
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("watchdog report missing %q:\n%s", want, rep)
		}
	}
}
