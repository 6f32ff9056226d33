package sim

import "fmt"

// procState tracks where a process goroutine currently is.
type procState int

const (
	procNew     procState = iota // goroutine not started yet
	procRunning                  // executing between engine handoffs
	procParked                   // parked, wake already scheduled (Sync)
	procWaiting                  // parked indefinitely, needs an external Wake
	procDone                     // body returned
)

// errShutdown is panicked into parked goroutines to unwind them when the
// engine shuts down.
type shutdownError struct{}

func (shutdownError) Error() string { return "sim: engine shutdown" }

// Proc is a simulated process: a goroutine that the engine resumes in strict
// simulated-time order. A Proc models one hardware core (or any other active
// entity).
//
// Procs maintain a local clock that may run ahead of the engine clock; see
// the package comment for the synchronization discipline.
type Proc struct {
	eng   *Engine
	name  string
	local Time
	state procState

	// quantum bounds the local-clock lookahead: Advance calls Sync once the
	// local clock is more than quantum ahead of the engine clock. Zero means
	// unbounded lookahead.
	quantum Duration

	resume chan struct{} // engine -> proc: run
	yield  chan struct{} // proc -> engine: parked or done

	body func(*Proc)

	// syncHook, when set, runs on the proc's goroutine every time the proc
	// returns from a park (Sync, Wait). The CPU model uses it to deliver
	// pending interrupts at well-defined points.
	syncHook func()

	// preWaitHook, when set, runs before an indefinite park (Wait). If it
	// returns true — it performed work, e.g. delivered an interrupt that
	// was posted while the proc was running — the Wait returns immediately
	// as a spurious wakeup instead of parking, so the caller's
	// check-then-wait loop re-evaluates its condition. Without this hook an
	// event posted between a condition check and the park could go
	// unnoticed forever.
	preWaitHook func() bool

	// wakeSeq guards against stale wake events: each park increments it, and
	// a wake event only resumes the proc if it still matches.
	wakeSeq uint64

	// halted marks a crashed process: it stays parked forever and every
	// dispatch attempt (wake, sync event, initial start) is ignored. Unlike
	// procDone the goroutine may still exist, parked; Engine.Shutdown
	// unwinds it like any other parked proc.
	halted bool
}

// NewProc creates a process that will start executing body at time start.
func (e *Engine) NewProc(name string, start Time, body func(*Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		local:  start,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		body:   body,
	}
	e.procs = append(e.procs, p)
	e.At(start, func() { p.dispatch() })
	return p
}

// Name returns the process name (for traces and diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// LocalTime returns the process-local clock, which is >= the engine clock
// whenever the process is running.
func (p *Proc) LocalTime() Time { return p.local }

// Lookahead returns how far the local clock runs ahead of the engine clock.
func (p *Proc) Lookahead() Duration {
	if p.local <= p.eng.now {
		return 0
	}
	return p.local - p.eng.now
}

// SetQuantum bounds local-clock lookahead; Advance will Sync whenever the
// lookahead exceeds q. Zero disables the bound.
func (p *Proc) SetQuantum(q Duration) { p.quantum = q }

// SetSyncHook registers fn to run (on the proc goroutine) after every park.
func (p *Proc) SetSyncHook(fn func()) { p.syncHook = fn }

// SetPreWaitHook registers fn to run before every indefinite park; see the
// preWaitHook field.
func (p *Proc) SetPreWaitHook(fn func() bool) { p.preWaitHook = fn }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// Halt permanently stops the process: it models a crashed core. The call
// must be made from the engine goroutine (an event callback) while the
// process is parked, waiting, or not yet started; from then on every
// dispatch attempt is ignored and the body never runs again. Halting a
// finished process is a no-op.
func (p *Proc) Halt() {
	if p.state == procDone {
		return
	}
	p.halted = true
}

// Halted reports whether the process was crash-halted.
func (p *Proc) Halted() bool { return p.halted }

// dispatch hands control to the proc goroutine and waits for it to park.
// It runs on the engine goroutine, inside an event callback.
func (p *Proc) dispatch() {
	if p.halted {
		return
	}
	prev := p.eng.cur
	p.eng.cur = p
	switch p.state {
	case procDone:
		p.eng.cur = prev
		return
	case procNew:
		p.state = procRunning
		go p.run()
	default:
		p.state = procRunning
		p.resume <- struct{}{}
	}
	<-p.yield
	p.eng.cur = prev
}

// run is the top of the proc goroutine.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(shutdownError); ok {
				p.yield <- struct{}{} // acknowledge Engine.Shutdown
				return
			}
			panic(r)
		}
	}()
	p.body(p)
	p.state = procDone
	p.yield <- struct{}{}
}

// park suspends the goroutine and returns control to the engine. On resume
// the local clock is pulled up to the engine clock (a parked process does
// not travel back in time) and the sync hook runs.
func (p *Proc) park(s procState) {
	p.state = s
	p.wakeSeq++
	p.yield <- struct{}{}
	if _, ok := <-p.resume; !ok {
		panic(shutdownError{})
	}
	if p.eng.now > p.local {
		p.local = p.eng.now
	}
	if p.syncHook != nil {
		p.syncHook()
	}
}

// Advance adds d to the local clock without engine interaction, unless the
// lookahead bound is exceeded, in which case it syncs.
func (p *Proc) Advance(d Duration) {
	p.local += d
	if p.quantum != 0 && p.local > p.eng.now && p.local-p.eng.now > p.quantum {
		p.Sync()
	}
}

// Sync parks the process until the engine clock reaches the local clock.
// After Sync returns, engine time equals local time and any effects the
// process applies are totally ordered against all other synced effects.
func (p *Proc) Sync() {
	if p.local <= p.eng.now {
		// Already in step; still give the hook a chance so interrupt
		// delivery cannot be starved by a proc that never runs ahead.
		if p.syncHook != nil {
			p.syncHook()
		}
		return
	}
	p.eng.scheduleSync(p.local, p, p.wakeSeq+1) // park below increments to this value
	p.park(procParked)
}

// Wait parks the process indefinitely; some other entity must Wake it.
// The caller is responsible for the check-then-wait loop that makes lost
// wakeups impossible (see Signal). Wait may return spuriously (for example
// when a pending interrupt is delivered instead of parking).
func (p *Proc) Wait() {
	if p.preWaitHook != nil && p.preWaitHook() {
		return
	}
	p.park(procWaiting)
}

// Wake schedules the process to resume at time at (or the current engine
// time if at is in the past). Waking a process that is not in Wait is a
// no-op by the time the event fires, so spurious wakes are harmless.
func (p *Proc) Wake(at Time) {
	if at < p.eng.now {
		at = p.eng.now
	}
	seq := p.wakeSeq
	p.eng.At(at, func() {
		if p.wakeSeq == seq && p.state == procWaiting {
			p.dispatch()
		}
	})
}

// shutdown unwinds a parked goroutine via panic so it does not leak.
func (p *Proc) shutdown() {
	switch p.state {
	case procParked, procWaiting:
		p.state = procDone
		// Resume the goroutine with a poisoned channel handshake: we cannot
		// send a normal resume because the proc would continue executing its
		// body. Instead close resume; the blocked receive returns and run()
		// recovers the shutdown panic triggered in park via the closed
		// channel read below.
		close(p.resume)
		<-p.yield
	}
}

func (p *Proc) String() string {
	return fmt.Sprintf("proc(%s local=%d)", p.name, p.local)
}
