package taskfarm

import (
	"testing"

	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

func smallChip() *scc.Config {
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	return &cfg
}

func runFarm(t *testing.T, model svm.Model, members []int, p Params) Result {
	t.Helper()
	scfg := svm.DefaultConfig(model)
	m, err := core.NewMachine(core.Options{
		Topology: smallChip(),
		SVM:      &scfg,
		Members:  members,
	})
	if err != nil {
		t.Fatal(err)
	}
	app := New(p)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	return app.Result()
}

func TestValidate(t *testing.T) {
	if (Params{Tasks: 0, UnitCycles: 1}).Validate() == nil {
		t.Fatal("zero tasks accepted")
	}
	if (Params{Tasks: 1}).Validate() == nil {
		t.Fatal("zero unit accepted")
	}
}

func TestEveryTaskExecutedExactlyOnce(t *testing.T) {
	p := DefaultParams()
	for _, model := range []svm.Model{svm.LazyRelease, svm.Strong} {
		for _, members := range [][]int{{0}, {0, 1, 30, 47}} {
			r := runFarm(t, model, members, p)
			if r.Sum != p.Expected() {
				t.Errorf("%v on %d cores: sum %#x, want %#x (task lost or duplicated)",
					model, len(members), r.Sum, p.Expected())
			}
			total := 0
			for _, n := range r.PerCore {
				total += n
			}
			if total != p.Tasks {
				t.Errorf("%v: %d task executions for %d tasks", model, total, p.Tasks)
			}
		}
	}
}

func TestDynamicBalancingBeatsStaticSplit(t *testing.T) {
	// The farm's makespan with uneven tasks must beat the static
	// distribution's worst block. Static: rank r of n gets a contiguous
	// block; the last block costs roughly sum of the largest task indices.
	p := Params{Tasks: 48, UnitCycles: 10_000, LockID: 5}
	members := []int{0, 1, 2, 3}
	r := runFarm(t, svm.LazyRelease, members, p)

	// Host-side static makespan (compute cost only, ignoring all overheads
	// — a LOWER bound for the static strategy's real cost).
	n := len(members)
	per := p.Tasks / n
	var staticWorst uint64
	for b := 0; b < n; b++ {
		var cost uint64
		for i := b * per; i < (b+1)*per; i++ {
			cost += uint64(i) * p.UnitCycles
		}
		if cost > staticWorst {
			staticWorst = cost
		}
	}
	clk := smallChip().Core.Clock
	staticPS := clk.Cycles(staticWorst)
	if float64(r.Elapsed) > 0.8*float64(staticPS) {
		t.Fatalf("farm makespan %v not clearly below static-split bound %v",
			r.Elapsed.Microseconds(), staticPS.Microseconds())
	}
	// And the early ranks must have picked up extra tasks.
	if r.PerCore[0] <= p.Tasks/n/2 {
		t.Fatalf("rank 0 executed only %d tasks: no stealing happened (%v)", r.PerCore[0], r.PerCore)
	}
}

func TestDeterministic(t *testing.T) {
	p := Params{Tasks: 20, UnitCycles: 3000, LockID: 2}
	a := runFarm(t, svm.LazyRelease, []int{0, 30}, p)
	b := runFarm(t, svm.LazyRelease, []int{0, 30}, p)
	if a.Sum != b.Sum || a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
