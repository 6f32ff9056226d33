//metalsvm:host-parallel
package main

import (
	"fmt"
	"math"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/kernel"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// Run lengths. The Laplace grid is the paper's (1024x512 doubles, one row
// per 4 KiB page); only the iteration count is shortened, because the
// per-iteration cost does not depend on it. The lengths keep one
// repetition between about 2 and 10 host seconds on a 2-CPU host, so a run
// holds several repetitions to take medians over.
const (
	laplaceCores = 16
	laplaceIters = 4
	kvRequests   = 20000
	scaleIters   = 2
	scaleChips   = 4
)

// A workload is one or more simulations that run one after another; one
// pass over all of them is a repetition.
type workload struct {
	name  string
	cells []cellSpec
}

// cellSpec builds one simulation: setup constructs the machine and the app
// (core.NewMachine / core.NewBaseline plus the app constructor) and returns
// it ready to run, so set-up, run and verification are timed separately at
// the boundaries of public calls.
type cellSpec struct {
	name  string
	setup func(seed uint64) (*cell, error)
}

// cell is one simulation between set-up and verification.
type cell struct {
	// run drives the simulation to completion (Machine.RunAll or
	// Baseline.Run) and returns the final simulated time.
	run func() sim.Time
	// verify reads the app's Result() after the run and returns its
	// simulated outputs and correctness checks.
	verify func() ([]output, []check)
	chip   *scc.Chip
	// cluster is nil for the message-passing baseline (no kernels).
	cluster *kernel.Cluster
	svm     *svm.System
	// members are the booted cores.
	members []int
}

// output is one simulated result, rendered exactly (floats as their bit
// pattern) so traced and untraced runs, and runs against the recorded
// values, compare bit for bit.
type output struct {
	name  string
	value string
}

// check is one verification of a simulated output.
type check struct {
	name string
	ok   bool
	// detail says what was compared, for the failure report.
	detail string
}

func f64out(name string, v float64) output {
	return output{name, fmt.Sprintf("%016x", math.Float64bits(v))}
}

func u64out(name string, v uint64) output { return output{name, fmt.Sprint(v)} }

// fig9Chip is the Figure 9 platform: the paper chip with private memory for
// two full arrays and a 16 MiB shared region.
func fig9Chip() scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 24 << 20
	cfg.SharedMem = 16 << 20
	return cfg
}

func laplaceParams(iters int) laplace.Params {
	p := laplace.DefaultParams()
	p.Iters = iters
	return p
}

// referenceChecksums memoizes laplace.ReferenceChecksum per iteration
// count. The first repetition's verification computes it; that repetition
// is never traced, so no reported span includes it.
var referenceChecksums = map[int]float64{}

func referenceChecksum(iters int) float64 {
	if v, ok := referenceChecksums[iters]; ok {
		return v
	}
	v := laplace.ReferenceChecksum(laplaceParams(iters))
	referenceChecksums[iters] = v
	return v
}

func checksumCheck(name string, got float64, iters int) check {
	want := referenceChecksum(iters)
	return check{name, got == want, fmt.Sprintf("checksum %v, reference %v", got, want)}
}

// svmMachine boots a MetalSVM machine on members of topo.
func svmMachine(topo scc.Config, model svm.Model, members []int) (*core.Machine, error) {
	scfg := svm.DefaultConfig(model)
	return core.NewMachine(core.Options{Topology: &topo, SVM: &scfg, Members: members})
}

func machineCell(m *core.Machine, main func(*core.Env), verify func() ([]output, []check)) *cell {
	return &cell{
		run:     func() sim.Time { return m.RunAll(main) },
		verify:  verify,
		chip:    m.Chip,
		cluster: m.Cluster,
		svm:     m.SVM,
		members: m.Cluster.Members(),
	}
}

func laplaceStrong(uint64) (*cell, error) {
	p := laplaceParams(laplaceIters)
	m, err := svmMachine(fig9Chip(), svm.Strong, core.FirstN(laplaceCores))
	if err != nil {
		return nil, err
	}
	app := laplace.NewSVM(p, laplace.SVMOptions{})
	return machineCell(m, func(env *core.Env) { app.Main(env.SVM) }, func() ([]output, []check) {
		r := app.Result()
		return []output{
				u64out("elapsed_ps", uint64(r.Elapsed)),
				f64out("checksum", r.Checksum),
				u64out("svm_faults", r.Faults),
			}, []check{
				checksumCheck("laplace_reference", r.Checksum, p.Iters),
			}
	}), nil
}

func laplaceIRCCE(uint64) (*cell, error) {
	p := laplaceParams(laplaceIters)
	chip := fig9Chip()
	members := core.FirstN(laplaceCores)
	b, err := core.NewBaseline(&chip, members)
	if err != nil {
		return nil, err
	}
	app := laplace.NewBaseline(p, b.Comm)
	return &cell{
		run: func() sim.Time { return b.Run(func(rank int, c *cpu.Core) { app.Main(rank, c) }) },
		verify: func() ([]output, []check) {
			r := app.Result()
			return []output{
					u64out("elapsed_ps", uint64(r.Elapsed)),
					f64out("checksum", r.Checksum),
				}, []check{
					checksumCheck("laplace_reference", r.Checksum, p.Iters),
				}
		},
		chip:    b.Chip,
		members: members,
	}, nil
}

// kvTopology is the kvstore's 16-core single chip.
func kvTopology() scc.Config { return scc.Grid(4, 4, 1).Normalized() }

func kvParams(seed uint64) kvstore.Params {
	p := kvstore.DefaultParams()
	p.Requests = kvRequests
	p.Seed = seed
	return p
}

func kvStore(seed uint64) (*cell, error) {
	topo := kvTopology()
	p := kvParams(seed)
	m, err := svmMachine(topo, svm.Strong, core.AllCores(topo))
	if err != nil {
		return nil, err
	}
	app := kvstore.New(p)
	return machineCell(m, func(env *core.Env) { app.Main(env.SVM) }, func() ([]output, []check) {
		r := app.Result()
		outs := []output{
			u64out("kv_checksum", r.Checksum),
			u64out("kv_audit_sum", r.AuditSum),
			f64out("kv_end_us", r.EndUS),
			u64out("kv_issued", r.Issued),
			u64out("kv_applied", r.Applied),
			u64out("kv_put_p99_ns", r.LatPut.Quantile(0.99)),
			u64out("kv_get_p99_ns", r.LatGet.Quantile(0.99)),
		}
		audit := fmt.Sprintf("audit ok=%v errors=%v", r.AuditOK, r.AuditErrors)
		taxonomy := fmt.Sprintf("issued %d, applied %d + shed %d + expired %d", r.Issued, r.Applied, r.Shed, r.Expired)
		return outs, []check{
			{"kv_audit", r.AuditOK, audit},
			{"kv_taxonomy", r.Issued == r.Applied+r.Shed+r.Expired && r.Issued == uint64(p.Requests), taxonomy},
		}
	}), nil
}

// scaleTopology is four 8x8x2 chips: 512 cores.
func scaleTopology() scc.Config { return scc.MultiChip(scaleChips, scc.Grid(8, 8, 2)).Normalized() }

// scaleLaplace and scaleFarm are the two halves of bench.RunScale: LRC
// Laplace and the task farm on every core of the 512-core machine.
func scaleLaplace(uint64) (*cell, error) {
	topo := scaleTopology()
	p := laplaceParams(scaleIters)
	m, err := svmMachine(topo, svm.LazyRelease, core.AllCores(topo))
	if err != nil {
		return nil, err
	}
	app := laplace.NewSVM(p, laplace.SVMOptions{})
	return machineCell(m, func(env *core.Env) { app.Main(env.SVM) }, func() ([]output, []check) {
		r := app.Result()
		return []output{
				u64out("laplace_elapsed_ps", uint64(r.Elapsed)),
				f64out("laplace_checksum", r.Checksum),
				u64out("link_crossings", m.Chip.MeshStats().LinkCrossings),
			}, []check{
				checksumCheck("LaplaceOK", r.Checksum, p.Iters),
			}
	}), nil
}

func scaleFarm(uint64) (*cell, error) {
	topo := scaleTopology()
	members := core.AllCores(topo)
	// The app's default 64 tasks: host time is set by 512 cores spinning on
	// the queue lock, which every core takes at least once, so more tasks
	// add little beyond run length.
	fp := taskfarm.DefaultParams()
	m, err := svmMachine(topo, svm.LazyRelease, members)
	if err != nil {
		return nil, err
	}
	app := taskfarm.New(fp)
	return machineCell(m, func(env *core.Env) { app.Main(env.SVM) }, func() ([]output, []check) {
		r := app.Result()
		want := fp.Expected()
		return []output{
				u64out("farm_elapsed_ps", uint64(r.Elapsed)),
				u64out("farm_sum", r.Sum),
			}, []check{
				{"FarmOK", r.Sum == want, fmt.Sprintf("sum %d, expected %d", r.Sum, want)},
			}
	}), nil
}

// workloads are the benchmark's workloads, each chosen to load a different
// set of layers (see README.md).
var workloads = []workload{
	// Per-access path: SVM page sweeps at 16 cores under the strong model.
	{
		name:  "laplace-strong",
		cells: []cellSpec{{"laplace", laplaceStrong}},
	},
	// The same Laplace through iRCCE and the MPB: invalidation-heavy, no SVM.
	{
		name:  "laplace-ircce",
		cells: []cellSpec{{"laplace", laplaceIRCCE}},
	},
	// Event queue, proc handoff, IRQ delivery and mailbox; few accesses per event.
	{
		name:  "kvstore",
		cells: []cellSpec{{"kvstore", kvStore}},
	},
	// 512 cores on 4 chips: deep event queue, TAS spinning, inter-chip link, large set-up.
	{
		name:  "scale-512",
		cells: []cellSpec{{"laplace", scaleLaplace}, {"farm", scaleFarm}},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
