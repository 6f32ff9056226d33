package bench

import (
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// ScaleParams sizes the multi-chip scale-out harness. Zero values select
// defaults small enough that a 512-core run finishes in test time.
type ScaleParams struct {
	// Model is the SVM consistency model (LazyRelease is the economical
	// choice at hundreds of cores; Strong pays an ownership round-trip per
	// written page per iteration).
	Model svm.Model
	// LaplaceIters is the Jacobi iteration count (default 2 — per-iteration
	// cost is constant, so completion and bit-identity need no more).
	LaplaceIters int
	// FarmTasks is the task-farm queue length (default 2 per core).
	FarmTasks int
}

// ScaleResult is one completion run of the scale-out harness: the paper's
// two workload patterns (static Laplace, dynamic task farm) on every core
// of a topology, with exact checksum verification.
type ScaleResult struct {
	Cores int
	Chips int
	// LaplaceUS is the Jacobi iteration-loop time in simulated µs;
	// LaplaceOK reports whether the checksum matched the reference solver
	// bit for bit.
	LaplaceUS float64
	LaplaceOK bool
	// FarmUS is the farm's longest per-core busy time in simulated µs;
	// FarmOK reports whether the reduced sum matched the expected value.
	FarmUS float64
	FarmOK bool
	// LinkCrossings counts inter-chip link transactions over both runs
	// (zero on a single chip).
	LinkCrossings uint64
}

// RunScale boots every core of the topology and runs the Laplace solver
// and the task farm to completion. Each run is a pure function of
// (topo, p), so two calls return bit-identical results — the multi-chip
// determinism check.
func RunScale(topo scc.Config, p ScaleParams) ScaleResult {
	cfg := topo.Normalized()
	members := core.AllCores(cfg)
	res := ScaleResult{Cores: len(members), Chips: cfg.Chips}

	iters := p.LaplaceIters
	if iters == 0 {
		iters = 2
	}
	lp := laplace.DefaultParams()
	lp.Iters = iters
	opts := core.Options{Topology: &cfg, Members: members}

	{
		m := newMachine(p.Model, opts)
		app := laplace.NewSVM(lp, laplace.SVMOptions{})
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		r := app.Result()
		res.LaplaceUS = r.Elapsed.Microseconds()
		res.LaplaceOK = r.Checksum == laplace.ReferenceChecksum(lp)
		res.LinkCrossings += m.Chip.MeshStats().LinkCrossings
	}

	tasks := p.FarmTasks
	if tasks == 0 {
		tasks = 2 * len(members)
	}
	fp := taskfarm.DefaultParams()
	fp.Tasks = tasks

	{
		m := newMachine(p.Model, opts)
		app := taskfarm.New(fp)
		m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
		r := app.Result()
		res.FarmUS = r.Elapsed.Microseconds()
		res.FarmOK = r.Sum == fp.Expected()
		res.LinkCrossings += m.Chip.MeshStats().LinkCrossings
	}
	return res
}
