// Package trace records protocol-level events from a simulation run —
// page faults, ownership transfers, mail, barriers, migrations — into a
// bounded ring buffer, with summarization and timeline formatting for
// debugging and for understanding where a workload's time goes.
//
// Tracing is optional: layers emit through a possibly-nil *Buffer, and a
// nil buffer costs one branch. The buffer is not goroutine-safe, which is
// fine — the simulator is single-threaded by construction.
package trace

import (
	"fmt"
	"io"
	"sort"

	"metalsvm/internal/sim"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindFault: a page fault began (Arg1 = faulting vaddr).
	KindFault Kind = iota
	// KindFirstTouch: a frame was allocated (Arg1 = page index, Arg2 = frame).
	KindFirstTouch
	// KindOwnerRequest: an ownership request was sent (Arg1 = page index,
	// Arg2 = owner asked).
	KindOwnerRequest
	// KindOwnerTransfer: ownership was handed over (Arg1 = page index,
	// Arg2 = new owner).
	KindOwnerTransfer
	// KindMailSend: a mail was deposited (Arg1 = receiver, Arg2 = type).
	KindMailSend
	// KindMailRecv: a mail was consumed (Arg1 = sender, Arg2 = type).
	KindMailRecv
	// KindBarrier: a kernel completed a barrier (Arg1 = barrier count).
	KindBarrier
	// KindMigration: a frame migrated on next-touch (Arg1 = page index,
	// Arg2 = new frame).
	KindMigration
	// KindIPI: an inter-processor interrupt was raised (Arg1 = target).
	KindIPI
	// KindFaultInject: the fault injector fired (Arg1 = route, Arg2 = kind,
	// both from internal/faults enums).
	KindFaultInject
	// KindRetransmit: the hardened mailbox redeposited or re-nudged a mail
	// (Arg1 = receiver, Arg2 = sequence number).
	KindRetransmit
	// KindWatchdog: the cluster progress watchdog fired (Arg1 = consecutive
	// frozen windows, Arg2 = progress count at the freeze).
	KindWatchdog
	// KindCrash: a core crash-halted permanently (Arg1 = 1 if its kernel
	// main had already finished).
	KindCrash
	// KindDirCommit: the replicated directory committed an ownership op
	// (Arg1 = page index, Arg2 = op number).
	KindDirCommit
	// KindDirFailover: a directory replica completed a view change and took
	// over as primary (Arg1 = new view, Arg2 = op number carried over).
	KindDirFailover
	// KindDirReclaim: the directory revoked a dead owner's page and
	// reassigned it (Arg1 = page index, Arg2 = new owner).
	KindDirReclaim
	kindCount
)

var kindNames = [kindCount]string{
	"fault", "first-touch", "owner-req", "owner-transfer",
	"mail-send", "mail-recv", "barrier", "migration", "ipi",
	"fault-inject", "retransmit", "watchdog",
	"crash", "dir-commit", "dir-failover", "dir-reclaim",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Core int32
	Kind Kind
	Arg1 uint64
	Arg2 uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%12.3fus core%-2d %-14s %#x %#x",
		e.At.Microseconds(), e.Core, e.Kind, e.Arg1, e.Arg2)
}

// Buffer is a bounded event ring. When full, the oldest events are
// overwritten and Dropped counts them — a trace never stops a long run.
type Buffer struct {
	ring    []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewBuffer creates a ring holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Buffer{ring: make([]Event, 0, capacity)}
}

// Emit records an event. Safe to call on a nil buffer (no-op).
func (b *Buffer) Emit(at sim.Time, core int, kind Kind, arg1, arg2 uint64) {
	if b == nil {
		return
	}
	e := Event{At: at, Core: int32(core), Kind: kind, Arg1: arg1, Arg2: arg2}
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
		return
	}
	b.ring[b.next] = e
	b.next = (b.next + 1) % cap(b.ring)
	b.wrapped = true
	b.dropped++
}

// Dropped reports how many events were overwritten.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Events returns the retained events in emission order, oldest first.
//
// Ordering contract: emission order is the simulator's execution order,
// which is monotonic in At per core but NOT globally — a core running ahead
// of its peers between sync points may emit a later timestamp before a peer
// emits an earlier one. After wrap-around (Dropped() > 0) the window starts
// at the oldest retained event; the order within the window is unchanged.
// Consumers that need global time order must sort by At themselves (the
// perfetto exporter does); consumers that need completeness must check
// Dropped — a wrapped buffer has lost the run's beginning, so cross-event
// pairings (e.g. a mail send whose receive was overwritten) may dangle.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	if !b.wrapped {
		out := make([]Event, len(b.ring))
		copy(out, b.ring)
		return out
	}
	out := make([]Event, 0, cap(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Len reports the number of retained events.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.ring)
}

// Summary aggregates event counts by kind and by core.
type Summary struct {
	ByKind map[Kind]int
	ByCore map[int32]int
	Total  int
	First  sim.Time
	Last   sim.Time
	// Dropped is the number of events lost to ring wrap-around before the
	// summarized window (zero when summarizing a plain event slice).
	Dropped uint64
}

// Summarize builds a Summary over events.
func Summarize(events []Event) Summary {
	s := Summary{ByKind: map[Kind]int{}, ByCore: map[int32]int{}}
	for i, e := range events {
		s.ByKind[e.Kind]++
		s.ByCore[e.Core]++
		s.Total++
		if i == 0 || e.At < s.First {
			s.First = e.At
		}
		if e.At > s.Last {
			s.Last = e.At
		}
	}
	return s
}

// Summary summarizes the buffer's retained events, carrying the drop count
// so a wrapped window is recognizable. Nil-safe.
func (b *Buffer) Summary() Summary {
	if b == nil {
		return Summary{ByKind: map[Kind]int{}, ByCore: map[int32]int{}}
	}
	s := Summarize(b.Events())
	s.Dropped = b.Dropped()
	return s
}

// WriteSummary formats a Summary.
func WriteSummary(w io.Writer, s Summary) {
	fmt.Fprintf(w, "%d events over %.3f us", s.Total, (s.Last - s.First).Microseconds())
	if s.Dropped > 0 {
		fmt.Fprintf(w, " (%d earlier events dropped by wrap-around)", s.Dropped)
	}
	fmt.Fprintln(w)
	kinds := make([]Kind, 0, len(s.ByKind))
	//metalsvm:deterministic — keys are collected, then sorted below
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-14s %6d\n", k, s.ByKind[k])
	}
	cores := make([]int32, 0, len(s.ByCore))
	//metalsvm:deterministic — keys are collected, then sorted below
	for c := range s.ByCore {
		cores = append(cores, c)
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for _, c := range cores {
		fmt.Fprintf(w, "  core %-2d        %6d\n", c, s.ByCore[c])
	}
}

// Filter returns the events matching every given predicate.
func Filter(events []Event, preds ...func(Event) bool) []Event {
	var out []Event
outer:
	for _, e := range events {
		for _, p := range preds {
			if !p(e) {
				continue outer
			}
		}
		out = append(out, e)
	}
	return out
}

// OnCore filters by core id.
func OnCore(core int) func(Event) bool {
	return func(e Event) bool { return e.Core == int32(core) }
}

// OfKind filters by kind.
func OfKind(kind Kind) func(Event) bool {
	return func(e Event) bool { return e.Kind == kind }
}

// Between filters by time range [lo, hi).
func Between(lo, hi sim.Time) func(Event) bool {
	return func(e Event) bool { return e.At >= lo && e.At < hi }
}

// WriteTimeline dumps events one per line, in the order given — for a
// buffer's Events() that is emission order (see the Events contract), so
// timestamps may interleave non-monotonically across cores.
func WriteTimeline(w io.Writer, events []Event) {
	for _, e := range events {
		fmt.Fprintln(w, e)
	}
}
