package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/apps/taskfarm"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/profile"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// fullInstrumentation enables every observer at once — the strongest
// perturbation test.
func fullInstrumentation() core.Instrumentation {
	return core.Instrumentation{
		TraceCapacity: 1 << 14,
		Race:          &racecheck.Config{},
		Metrics:       true,
		Profile:       &profile.Config{},
	}
}

// cellRunners is the package's harness-cell table as the tests enumerate
// it: every exported cell runner, at sizes small enough for go test, with
// the fixed modifiers (machine, members, fault schedule) of its cell.
func cellRunners(t *testing.T) []struct {
	name string
	run  func(core.Options) Record
} {
	fig9 := PaperFig9(2)
	small := ShrunkChip(nil)
	two := scc.MultiChip(2, scc.Grid(2, 2, 2))
	twoChip := ShrunkChip(&two)
	kvTopo := scc.Grid(4, 4, 1)
	lp := laplace.Params{Rows: 16, Cols: 512, Iters: 2, TopTemp: 100}
	kp := kvstore.DefaultParams()
	kp.Requests = 600
	schedule := func(name string) *faults.Config {
		fc, err := faults.ParseConfig("4," + name)
		if err != nil {
			t.Fatal(err)
		}
		return &fc
	}
	return []struct {
		name string
		run  func(core.Options) Record
	}{
		{"fig6", func(o core.Options) Record { return Fig6Cell(20, o) }},
		{"fig7", func(o core.Options) Record { return Fig7Cell(20, 4, o) }},
		{"table1", func(o core.Options) Record { return Table1(svm.Strong, o) }},
		{"fig9", func(o core.Options) Record {
			o.Topology, o.Members = &fig9.Chip, core.FirstN(2)
			return Laplace(fig9.Params, svm.Strong, o)
		}},
		{"repldir", func(o core.Options) Record {
			o.Topology, o.Members, o.ReplicatedDirectory = &small, core.FirstN(4), &repldir.Config{}
			return Laplace(lp, svm.Strong, o)
		}},
		{"matmul", func(o core.Options) Record {
			o.Topology, o.Members = &small, core.FirstN(4)
			return Matmul(matmul.Params{N: 16}, svm.Strong, o)
		}},
		{"taskfarm", func(o core.Options) Record {
			o.Topology, o.Members = &small, core.FirstN(4)
			return Taskfarm(taskfarm.DefaultParams(), svm.LazyRelease, o)
		}},
		{"dir", func(o core.Options) Record {
			o.Topology, o.Members, o.Faults = &small, core.FirstN(4), schedule("crash")
			return DirCrash(lp, svm.Strong, o)
		}},
		{"partition", func(o core.Options) Record {
			o.Topology, o.Members, o.Faults = &twoChip, []int{0, 1, 8, 9}, schedule("partition")
			return PartitionHeal(laplace.Params{Rows: 64, Cols: 32, Iters: 2, TopTemp: 100}, o)
		}},
		{"kvstore", func(o core.Options) Record {
			o.Topology = &kvTopo
			return KVStore(kp, o)
		}},
	}
}

// TestObservedHarnessEquivalence is the zero-perturbation contract over the
// cell table: with metrics, profiling, tracing and race checking all
// enabled, every cell reproduces its uninstrumented record bit for bit.
func TestObservedHarnessEquivalence(t *testing.T) {
	for _, c := range cellRunners(t) {
		t.Run(c.name, func(t *testing.T) {
			plain := c.run(core.Options{})
			if !plain.Completed {
				t.Fatalf("plain run froze:\n%s", plain.Watchdog)
			}
			if plain.Obs != nil {
				t.Fatal("empty instrumentation built an observation")
			}
			got := c.run(core.Options{Observe: fullInstrumentation()})
			if !got.Same(plain) {
				t.Fatalf("instrumentation changed the record:\nplain = %+v\ngot   = %+v", plain, got)
			}
			checkObservation(t, got.Obs)
		})
	}
}

// checkObservation asserts the observation's artifacts are coherent: the
// profile partitions each core's time, the snapshot is non-empty, and the
// Perfetto export is valid JSON.
func checkObservation(t *testing.T, obs *core.Observation) {
	t.Helper()
	if obs == nil {
		t.Fatal("no observation")
	}
	r := obs.ProfileReport()
	if r == nil || len(r.Cores) == 0 {
		t.Fatal("no profile report")
	}
	for _, c := range r.Cores {
		if c.Sum() != c.Total {
			t.Errorf("core %d buckets sum to %d, total %d", c.Core, c.Sum(), c.Total)
		}
	}
	s := obs.MetricsSnapshot()
	if s == nil || len(s.Counters) == 0 {
		t.Fatal("no metrics snapshot")
	}
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("perfetto export is not valid JSON")
	}
}
