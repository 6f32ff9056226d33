// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives a set of processes (Proc), each backed by a goroutine,
// in strict simulated-time order: exactly one process executes at any moment,
// and pending events are ordered by (time, insertion sequence). Every run of
// the same program therefore produces bit-identical simulated timestamps.
//
// Processes own a local clock that may run ahead of the global engine clock
// while they model compute or private-memory activity (Advance). Before any
// operation whose effect must be globally ordered — a write to a shared
// mailbox flag, a test-and-set register access, an ownership-vector update —
// the process calls Sync, which parks it until the engine clock catches up
// with its local clock. Correctly synchronized simulated programs therefore
// observe the same values as a fully serialized execution, while bulk data
// accesses stay cheap (no event per access).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in picoseconds.
//
// Picoseconds are fine enough to mix clock domains (533 MHz cores, 800 MHz
// mesh and memory) without accumulating rounding drift that would matter at
// the microsecond scales the experiments report, and a uint64 of picoseconds
// spans over 200 days of simulated time.
type Time uint64

// Microseconds converts t to microseconds as a float, for reporting.
func (t Time) Microseconds() float64 { return float64(t) / 1e6 }

// Duration is a span of simulated time, in picoseconds.
type Duration = Time

// Microseconds builds a duration from a microsecond count.
func Microseconds(us float64) Duration { return Duration(math.Round(us * 1e6)) }

// Clock converts cycle counts of a fixed-frequency clock domain into
// simulated time.
type Clock struct {
	// PeriodPS is the clock period in picoseconds.
	PeriodPS uint64
}

// MHz returns the clock for a frequency given in megahertz.
func MHz(f float64) Clock {
	if f <= 0 {
		panic("sim: non-positive clock frequency")
	}
	return Clock{PeriodPS: uint64(math.Round(1e6 / f))}
}

// Cycles returns the duration of n clock cycles.
func (c Clock) Cycles(n uint64) Duration { return Duration(n * c.PeriodPS) }

// ToCycles converts a duration into whole cycles of this clock (rounded down).
func (c Clock) ToCycles(d Duration) uint64 { return uint64(d) / c.PeriodPS }

// Engine is the central event queue and scheduler.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   quadQueue
	procs   []*Proc
	stopped bool
	// running reports whether Run is currently dispatching events. Procs may
	// only execute while the engine runs.
	running bool
	// cur is the proc whose event callback is currently executing, kept for
	// diagnostics (panic messages name the offending process).
	cur *Proc
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current global simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would violate causality and mask a modeling bug. Scheduling at the
// current time takes the queue's append fast path (see queue.go).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d before now %d%s", t, e.now, e.curName()))
	}
	e.seq++
	e.queue.push(event{at: t, seq: e.seq, fn: fn}, e.now)
}

// curName names the proc whose callback is executing, for panic messages.
func (e *Engine) curName() string {
	if e.cur != nil {
		return " by proc " + e.cur.name
	}
	return ""
}

// scheduleSync enqueues a data-carrying wake for p at time at. Called from
// the proc goroutine while the engine is blocked in its dispatch handshake,
// so it observes a stable engine clock.
func (e *Engine) scheduleSync(at Time, p *Proc, wakeSeq uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d before now %d by proc %s",
			at, e.now, p.name))
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, proc: p, wakeSeq: wakeSeq}, e.now)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in (time, sequence) order until the queue drains or
// Stop is called. It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(Time(math.MaxUint64)) }

// RunUntil dispatches events with timestamps <= limit, then returns.
// The engine clock is left at the last dispatched event (or limit if the
// queue drained earlier events only).
func (e *Engine) RunUntil(limit Time) Time {
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped {
		head, ok := e.queue.head()
		if !ok || head.at > limit {
			break
		}
		ev := e.queue.pop()
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %d behind clock %d%s",
				ev.at, e.now, e.curName()))
		}
		e.now = ev.at
		e.dispatchEvent(ev)
	}
	return e.now
}

// dispatchEvent runs one dequeued event: a closure, or a data-carrying
// process wake (fn == nil) that resumes the process if the wake is still
// live — the same guard the closure-based wakes apply.
func (e *Engine) dispatchEvent(ev event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	p := ev.proc
	if p.wakeSeq == ev.wakeSeq && (p.state == procParked || p.state == procWaiting) {
		p.dispatch()
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }

// Shutdown terminates all process goroutines that are still parked. It must
// be called after Run returns when processes may still be blocked (for
// example an idle loop waiting for mail that will never arrive), otherwise
// their goroutines leak. Shutdown is idempotent.
func (e *Engine) Shutdown() {
	for _, p := range e.procs {
		p.shutdown()
	}
}
