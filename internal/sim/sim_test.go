package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockMHz(t *testing.T) {
	c := MHz(800)
	if c.PeriodPS != 1250 {
		t.Fatalf("800 MHz period = %d ps, want 1250", c.PeriodPS)
	}
	if got := c.Cycles(4); got != 5000 {
		t.Fatalf("4 cycles @800MHz = %d ps, want 5000", got)
	}
	c533 := MHz(533)
	if c533.PeriodPS != 1876 {
		t.Fatalf("533 MHz period = %d ps, want 1876", c533.PeriodPS)
	}
}

func TestClockRoundTrip(t *testing.T) {
	c := MHz(533)
	if n := c.ToCycles(c.Cycles(12345)); n != 12345 {
		t.Fatalf("cycle round trip = %d, want 12345", n)
	}
}

func TestMicroseconds(t *testing.T) {
	d := Microseconds(2.5)
	if d != 2_500_000 {
		t.Fatalf("2.5us = %d ps, want 2500000", d)
	}
	if got := Time(2_500_000).Microseconds(); got != 2.5 {
		t.Fatalf("2500000 ps = %v us, want 2.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(100, func() { order = append(order, 1) })
	e.At(50, func() { order = append(order, 0) })
	e.At(100, func() { order = append(order, 2) }) // same time: insertion order
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 100 {
		t.Fatalf("final time = %d, want 100", e.Now())
	}
}

func TestEventInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt dispatch)", fired)
	}
}

func TestProcAdvanceAndSync(t *testing.T) {
	e := NewEngine()
	var atSync Time
	e.NewProc("p", 0, func(p *Proc) {
		p.Advance(1000)
		if p.LocalTime() != 1000 {
			t.Errorf("local = %d, want 1000", p.LocalTime())
		}
		if e.Now() != 0 {
			t.Errorf("engine advanced with local clock: now = %d", e.Now())
		}
		p.Sync()
		atSync = e.Now()
	})
	e.Run()
	if atSync != 1000 {
		t.Fatalf("engine time at sync = %d, want 1000", atSync)
	}
}

func TestProcQuantumForcesSync(t *testing.T) {
	e := NewEngine()
	maxLookahead := Duration(0)
	e.NewProc("p", 0, func(p *Proc) {
		p.SetQuantum(100)
		for i := 0; i < 50; i++ {
			p.Advance(30)
			if la := p.Lookahead(); la > maxLookahead {
				maxLookahead = la
			}
		}
	})
	e.Run()
	if maxLookahead > 130 {
		t.Fatalf("lookahead reached %d, quantum 100 not enforced", maxLookahead)
	}
}

func TestTwoProcsInterleaveInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	worker := func(name string, step Duration) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(step)
				p.Sync()
				order = append(order, name)
			}
		}
	}
	e.NewProc("a", 0, worker("a", 100))
	e.NewProc("b", 0, worker("b", 150))
	e.Run()
	// a syncs at 100,200,300; b at 150,300,450. At t=300 a was scheduled
	// first (its Sync event for 300 is enqueued at t=200 < b's enqueued at
	// 150... both enqueue their t=300 events at different times; a's Sync to
	// 300 is scheduled at engine time 200, b's at engine time 150, so b's
	// has the lower sequence number and runs first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitWake(t *testing.T) {
	e := NewEngine()
	var got Time
	p := e.NewProc("sleeper", 0, func(p *Proc) {
		p.Wait()
		got = e.Now()
	})
	e.At(0, func() { p.Wake(777) })
	e.Run()
	if got != 777 {
		t.Fatalf("woke at %d, want 777", got)
	}
}

func TestHaltStopsProcForever(t *testing.T) {
	e := NewEngine()
	steps := 0
	p := e.NewProc("victim", 0, func(p *Proc) {
		for {
			steps++
			p.Advance(100)
			p.Sync()
		}
	})
	e.At(1000, func() { p.Halt() })
	e.Run()
	if !p.Halted() {
		t.Fatal("proc not marked halted")
	}
	if p.Done() {
		t.Fatal("a halted proc must not count as done")
	}
	// The loop syncs at t=100..1000; the halt at t=1000 runs before the
	// proc's own sync event at the same timestamp resumes it, so the body
	// stops after the 10 steps already taken and never runs again.
	if steps != 10 {
		t.Fatalf("body took %d steps, want 10", steps)
	}
	// Waking a halted proc must be ignored, not resume the body.
	e.At(2000, func() { p.Wake(2000) })
	e.RunUntil(3000)
	if steps != 10 {
		t.Fatalf("halted proc ran again: %d steps", steps)
	}
	e.Shutdown()
}

func TestHaltFinishedProcIsNoOp(t *testing.T) {
	e := NewEngine()
	p := e.NewProc("done", 0, func(p *Proc) { p.Advance(10) })
	e.Run()
	p.Halt()
	if p.Halted() {
		t.Fatal("halting a finished proc must be a no-op")
	}
	if !p.Done() {
		t.Fatal("proc should be done")
	}
}

func TestStaleWakeIgnored(t *testing.T) {
	e := NewEngine()
	wakes := 0
	p := e.NewProc("sleeper", 0, func(p *Proc) {
		p.Wait()
		wakes++
		p.Advance(10)
		p.Sync() // parked again; the duplicate wake event must not disturb it
		p.Wait()
		wakes++
	})
	e.At(0, func() {
		p.Wake(100)
		p.Wake(100) // duplicate: second must be ignored (stale wakeSeq)
	})
	e.At(500, func() { p.Wake(500) })
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestSignalCheckThenWait(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	ready := false
	var sawAt Time
	e.NewProc("consumer", 0, func(p *Proc) {
		for !ready {
			sig.Wait(p)
		}
		sawAt = e.Now()
	})
	e.NewProc("producer", 0, func(p *Proc) {
		p.Advance(5000)
		p.Sync()
		ready = true
		sig.Fire(p.LocalTime())
	})
	e.Run()
	if sawAt != 5000 {
		t.Fatalf("consumer saw condition at %d, want 5000", sawAt)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("waiters = %d, want 0", sig.Waiters())
	}
}

func TestSignalConditionAlreadyTrue(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	ready := true
	done := false
	e.NewProc("consumer", 10, func(p *Proc) {
		for !ready {
			sig.Wait(p)
		}
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("consumer blocked although condition already true")
	}
}

func TestSignalMultipleWaitersWakeInOrder(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	ready := false
	var order []string
	for _, name := range []string{"w0", "w1", "w2"} {
		name := name
		e.NewProc(name, 0, func(p *Proc) {
			for !ready {
				sig.Wait(p)
			}
			order = append(order, name)
		})
	}
	e.At(100, func() { ready = true; sig.Fire(100) })
	e.Run()
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestShutdownUnblocksParkedProcs(t *testing.T) {
	e := NewEngine()
	p := e.NewProc("stuck", 0, func(p *Proc) {
		p.Wait() // never woken
		t.Error("stuck proc resumed unexpectedly")
	})
	e.Run()
	e.Shutdown()
	if !p.Done() && p.state != procDone {
		t.Fatal("proc not terminated by Shutdown")
	}
}

func TestSyncHookRunsAfterPark(t *testing.T) {
	e := NewEngine()
	hooks := 0
	e.NewProc("p", 0, func(p *Proc) {
		p.SetSyncHook(func() { hooks++ })
		p.Advance(100)
		p.Sync()
		p.Advance(100)
		p.Sync()
	})
	e.Run()
	if hooks != 2 {
		t.Fatalf("hook ran %d times, want 2", hooks)
	}
}

// TestDeterminism runs a mildly complex proc interaction twice and requires
// identical event timing — the core guarantee everything else rests on.
func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		var stamps []Time
		e := NewEngine()
		sig := NewSignal(e)
		mail := 0
		for i := 0; i < 8; i++ {
			step := Duration(100 + 37*i)
			e.NewProc("p", 0, func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Advance(step)
					p.Sync()
					mail++
					sig.Fire(p.LocalTime())
					stamps = append(stamps, e.Now())
				}
			})
		}
		e.NewProc("watcher", 0, func(p *Proc) {
			for mail < 40 {
				sig.Wait(p)
			}
			stamps = append(stamps, e.Now())
		})
		e.Run()
		e.Shutdown()
		return stamps
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any sequence of positive advances, the engine clock after a
// final Sync equals the sum of the advances (local clocks never drift).
func TestAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		e := NewEngine()
		var want Time
		var got Time
		e.NewProc("p", 0, func(p *Proc) {
			for _, s := range steps {
				d := Duration(s) + 1
				want += d
				p.Advance(d)
			}
			p.Sync()
			got = e.Now()
		})
		e.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// scheduling order, with ties broken by insertion sequence.
func TestHeapOrderProperty(t *testing.T) {
	f := func(times []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSetQuantumMidAdvance changes the quantum between Advance calls; the
// new bound must take effect for the very next Advance.
func TestSetQuantumMidAdvance(t *testing.T) {
	e := NewEngine()
	var syncs []Time
	e.NewProc("p", 0, func(p *Proc) {
		p.SetQuantum(100)
		p.Advance(150) // exceeds 100: parks at 150
		p.SetQuantum(1000)
		p.Advance(900) // lookahead 900 <= 1000: no park
		if e.Now() != 150 {
			syncs = append(syncs, ^Time(0))
		}
		p.Advance(200) // lookahead 1100 > 1000: parks at 1250
		p.SetQuantum(50)
		p.Advance(60) // new tight bound: parks at 1310
		p.Sync()
	})
	e.Run()
	if len(syncs) != 0 {
		t.Fatal("quantum 1000 did not suppress the park")
	}
	if e.Now() != 1310 {
		t.Fatalf("final clock %d, want 1310", e.Now())
	}
}

// TestQuantumExactlyEqualToStep: a quantum exactly equal to the advance
// step must not park (the bound is strict: lookahead > quantum), and two
// steps must.
func TestQuantumExactlyEqualToStep(t *testing.T) {
	e := NewEngine()
	parks := 0
	e.NewProc("p", 0, func(p *Proc) {
		p.SetSyncHook(func() { parks++ })
		p.SetQuantum(100)
		p.Advance(100) // lookahead == quantum: stays local
		if e.Now() != 0 {
			t.Errorf("engine advanced to %d on an exactly-quantum step", e.Now())
		}
		p.Advance(100) // lookahead 200 > 100: parks at 200
		if e.Now() != 200 {
			t.Errorf("engine at %d after second step, want 200", e.Now())
		}
	})
	e.Run()
	if parks != 1 {
		t.Fatalf("parks = %d, want exactly 1", parks)
	}
}

// TestZeroQuantumUnbounded: zero quantum means unbounded lookahead — the
// proc must never park on Advance no matter how far it runs ahead, while a
// bounded sibling interleaves normally.
func TestZeroQuantumUnbounded(t *testing.T) {
	e := NewEngine()
	var order []string
	e.NewProc("free", 0, func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(1000)
		}
		if e.Now() != 0 {
			t.Errorf("unbounded proc advanced the engine to %d", e.Now())
		}
		p.Sync()
		order = append(order, fmt.Sprintf("free@%d", e.Now()))
	})
	e.NewProc("tight", 0, func(p *Proc) {
		p.SetQuantum(10)
		for i := 0; i < 5; i++ {
			p.Advance(100)
			order = append(order, fmt.Sprintf("tight@%d", p.LocalTime()))
		}
	})
	e.Run()
	// tight parks at 100..500 and records after each park; free syncs at
	// 1000000 last.
	want := []string{"tight@100", "tight@200", "tight@300", "tight@400", "tight@500", "free@1000000"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
