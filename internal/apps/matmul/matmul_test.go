package matmul

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

func runMatmul(t *testing.T, model svm.Model, members []int, p Params) Result {
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
	if (Params{N: 1}).Validate() == nil {
		t.Fatal("N=1 accepted")
	}
	if (Params{N: 8}).Validate() != nil {
		t.Fatal("N=8 rejected")
	}
}

func TestReferenceKnownValue(t *testing.T) {
	// 2x2 hand check: A = [[0, .5],[.25, .75]], B = [[0, .5],[1.5, 2.0]]
	// (from the fill patterns with N=2).
	p := Params{N: 2}
	c := Reference(p)
	want := []float64{
		0*0 + .5*1.5, 0*.5 + .5*2.0,
		.25*0 + .75*1.5, .25*.5 + .75*2.0,
	}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("C[%d] = %v, want %v (got %v)", i, c[i], want[i], c)
		}
	}
}

func TestMatchesReferenceBitExact(t *testing.T) {
	p := Params{N: 12}
	want := ReferenceChecksum(p)
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		for _, members := range [][]int{{0}, {0, 30}, {0, 1, 2}} {
			got := runMatmul(t, model, members, p)
			if got.Checksum != want {
				t.Errorf("%v on %d cores: checksum %v, want %v",
					model, len(members), got.Checksum, want)
			}
		}
	}
}

func TestProtectedMatchesReference(t *testing.T) {
	p := Params{N: 12, Protected: true}
	want := ReferenceChecksum(Params{N: 12})
	got := runMatmul(t, svm.LazyRelease, []int{0, 1, 30}, p)
	if got.Checksum != want {
		t.Fatalf("protected run checksum %v, want %v", got.Checksum, want)
	}
}

// TestReadOnlyProtectionSpeedsUpMultiply is the §6.4 payoff in an
// application: the same multiply with A and B protected read-only (L2
// re-enabled) must run measurably faster than with them writable
// (MPBT, L1 only). N is chosen so B (the streamed input) exceeds L1 but
// fits L2.
func TestReadOnlyProtectionSpeedsUpMultiply(t *testing.T) {
	p := Params{N: 64} // one matrix = 32 KiB: 2x L1, well inside L2
	members := []int{0, 30}
	writable := runMatmul(t, svm.LazyRelease, members, p)
	p.Protected = true
	protected := runMatmul(t, svm.LazyRelease, members, p)
	if protected.Checksum != writable.Checksum {
		t.Fatalf("protection changed the result: %v vs %v", protected.Checksum, writable.Checksum)
	}
	if float64(protected.Elapsed) > 0.8*float64(writable.Elapsed) {
		t.Fatalf("read-only protection gave no speedup: %v vs %v",
			protected.Elapsed.Microseconds(), writable.Elapsed.Microseconds())
	}
}

func TestDeterministic(t *testing.T) {
	p := Params{N: 10, Protected: true}
	a := runMatmul(t, svm.Strong, []int{0, 1}, p)
	b := runMatmul(t, svm.Strong, []int{0, 1}, p)
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
