package core

import (
	"testing"

	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
	"metalsvm/internal/trace"
)

// tracedWorkload drives every trace-emitting layer: SVM faults and
// first-touch (fault, first-touch), the strong model's ownership protocol
// (owner-req, owner-transfer), kernel barriers over IPI-mode mailboxes
// (barrier, mail-send, mail-recv, ipi), and next-touch migration
// (migration).
func tracedWorkload(t *testing.T, buf *trace.Buffer) sim.Time {
	t.Helper()
	scfg := svm.DefaultConfig(svm.Strong)
	// Cores 0 and 47 sit in different quadrants, so the migration below
	// really moves the frame between memory controllers.
	m, err := NewMachine(Options{Topology: smallChip(), SVM: &scfg, Members: []int{0, 47}})
	if err != nil {
		t.Fatal(err)
	}
	m.Chip.SetTracer(buf)
	return m.RunAll(func(env *Env) {
		base := env.SVM.Alloc(4096)
		if env.K.ID() == 0 {
			env.Core().Store64(base, 1)
		}
		env.SVM.Barrier()
		if env.K.ID() == 47 {
			env.Core().Store64(base, 2) // steal ownership from core 0
		}
		env.SVM.Barrier()             // steal settles before migration arms
		env.SVM.NextTouch(base, 4096) // collective: drops every mapping
		if env.K.ID() == 47 {
			env.Core().Load64(base) // refault: migrates the frame home
		}
		env.SVM.Barrier()
	})
}

// TestNilTracerAcrossAllLayers runs the full emitting surface with no
// buffer installed: nothing may panic, and the run must cost exactly the
// same simulated time as a traced run — tracing is observation, not
// behavior.
func TestNilTracerAcrossAllLayers(t *testing.T) {
	endNil := tracedWorkload(t, nil)
	buf := trace.NewBuffer(4096)
	endBuf := tracedWorkload(t, buf)
	if endNil != endBuf {
		t.Fatalf("tracing changed simulated time: %v vs %v", endNil, endBuf)
	}
	if buf.Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}
}

// TestTracerSeesEveryLayer asserts each emitting layer actually produced
// its event kinds, so the nil-safety test above really covers them all.
func TestTracerSeesEveryLayer(t *testing.T) {
	buf := trace.NewBuffer(4096)
	tracedWorkload(t, buf)
	got := map[trace.Kind]bool{}
	for _, e := range buf.Events() {
		got[e.Kind] = true
	}
	for _, k := range []trace.Kind{
		trace.KindFault, trace.KindFirstTouch, trace.KindOwnerRequest,
		trace.KindOwnerTransfer, trace.KindMailSend, trace.KindMailRecv,
		trace.KindBarrier, trace.KindMigration, trace.KindIPI,
	} {
		if !got[k] {
			t.Errorf("no %v event recorded", k)
		}
	}
}
