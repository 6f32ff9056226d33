package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs runs the rest of the test at GOMAXPROCS=n, the pool's width.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		setProcs(t, workers)
		const n = 257
		var hits [n]atomic.Int32
		Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	called := false
	Run(0, func(int) { called = true })
	Run(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestRunBoundedByGOMAXPROCS checks the pool's width: never more calls in
// flight than GOMAXPROCS.
func TestRunBoundedByGOMAXPROCS(t *testing.T) {
	setProcs(t, 3)
	var inFlight, peak atomic.Int32
	Run(64, func(int) {
		now := inFlight.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
	})
	if p := peak.Load(); p < 1 || p > 3 {
		t.Fatalf("peak calls in flight = %d, want 1..3", p)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			Run(8, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
	}
}

func TestRunSerialOrder(t *testing.T) {
	// At GOMAXPROCS=1 the pool must preserve index order exactly (it is
	// the serial run the equivalence tests compare against).
	setProcs(t, 1)
	var order []int
	Run(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}
