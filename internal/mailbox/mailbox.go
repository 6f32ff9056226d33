// Package mailbox implements MetalSVM's asynchronous mailbox system on top
// of the SCC's message-passing buffers, as described in Section 5 of the
// paper.
//
// For each communication pair one cache-line-sized mailbox is reserved in
// the receiver's MPB — one 32-byte slot per possible sender, so the paper's
// 48-core chip spends 1.5 KiB per core and larger topologies scale with
// the configured core count (scc.Validate sizes the MPB). A slot is a
// single-reader/single-writer channel: only the sender writes payload and
// sets the flag; only the receiver reads and clears the flag. A sender that
// finds the slot still full busy-waits until the receiver has consumed the
// previous mail.
//
// Two delivery modes reproduce the paper's two curves:
//
//   - ModePolling: receivers discover mail only by checking slots (the
//     kernel checks on every interrupt and in the idle loop). Checking one
//     slot costs ~100 core cycles, so the cost grows with the number of
//     active cores.
//   - ModeIPI: after depositing a mail the sender raises an IPI through the
//     GIC; the receiver's handler asks the GIC which core raised it and
//     checks only that slot.
//
// # Hardened protocol
//
// When the chip runs with fault injection in hardened mode
// (scc.Chip.FaultsHardened), the frame additionally carries a per-pair
// sequence number and a checksum, and the flag-clear becomes a cumulative
// acknowledgement: the receiver publishes the last in-order sequence it
// consumed in the freed slot's header. The sender keeps the last mail
// buffered until it is acknowledged and retransmits it on a simulated-time
// timeout with exponential backoff, so dropped deposits, dropped IPIs,
// corrupted frames and stale duplicates all recover:
//
//   - drop: the flag never lands; the retransmission timer redeposits.
//   - corruption: the receiver's checksum fails; it frees the slot without
//     advancing the acknowledgement and the timer redeposits a clean copy.
//   - duplicate: the sequence number is not newer than the last delivery;
//     the receiver discards and re-acknowledges.
//   - dropped IPI: the timer re-fires the notification for a deposited but
//     unconsumed mail.
//
// The hardened frame costs the same simulated time as the plain one (MPB
// transactions are size-independent below a line), so hardened fault-free
// runs remain directly comparable; plain runs are untouched bit for bit.
package mailbox

import (
	"encoding/binary"
	"fmt"
	"io"

	"metalsvm/internal/faults"
	"metalsvm/internal/phys"
	"metalsvm/internal/profile"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// PayloadSize is the usable bytes per mail: one line minus flag, type and
// length header.
const PayloadSize = phys.CacheLine - 4

// HardenedPayloadSize is the usable bytes per mail under the hardened
// protocol: the line additionally carries a 16-bit sequence number and a
// 16-bit checksum.
const HardenedPayloadSize = phys.CacheLine - 8

// RetxTimeoutCoreCycles is the hardened sender's base retransmission
// timeout in core cycles (~37.5 us at the paper's 533 MHz). The timeout
// doubles per attempt up to RetxTimeoutCoreCycles << RetxBackoffShiftCap.
const RetxTimeoutCoreCycles = 20000

// RetxBackoffShiftCap bounds the retransmission backoff exponent.
const RetxBackoffShiftCap = 6

// RetxMaxFires bounds the total firings of one mail's retransmission
// timer. A receiver that has exited (or sits in a compute phase for the
// rest of the run) never consumes the mail, and an unbounded timer would
// keep the event queue alive forever; past the bound the sender gives up
// and the watchdog owns the diagnosis.
const RetxMaxFires = 64

// Mode selects how receivers learn about new mail.
type Mode int

const (
	// ModePolling relies on periodic scans of all receive slots.
	ModePolling Mode = iota
	// ModeIPI raises an interrupt identifying the sender.
	ModeIPI
)

func (m Mode) String() string {
	if m == ModeIPI {
		return "ipi"
	}
	return "polling"
}

// Msg is one received mail.
type Msg struct {
	From    int
	Type    byte
	Payload [PayloadSize]byte
}

// U32 reads the i-th little-endian uint32 from the payload (protocol
// convenience).
func (m *Msg) U32(i int) uint32 {
	return binary.LittleEndian.Uint32(m.Payload[4*i:])
}

// PutU32 writes the i-th little-endian uint32 into a payload buffer.
func PutU32(p []byte, i int, v uint32) {
	binary.LittleEndian.PutUint32(p[4*i:], v)
}

// FrameError reports a malformed receive frame (impossible length or, in
// hardened mode, a checksum mismatch). The frame is discarded; in hardened
// mode the sender's retransmission recovers it, in plain mode it is lost.
type FrameError struct {
	Receiver int
	Sender   int
	// Len is the frame's claimed payload length.
	Len int
	// Reason describes the validation failure.
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("mailbox: bad frame from %d to %d (len %d): %s",
		e.Sender, e.Receiver, e.Len, e.Reason)
}

// SyncHook observes the mailbox's synchronization behavior (a race checker
// building happens-before edges). MailDeposited runs on the sender's
// goroutine once the mail is in the receiver's MPB — at that point the
// sender has also observed the slot free, i.e. the previous mail consumed.
// MailConsumed runs on the receiver's goroutine when a mail is taken out.
// Hooks must not charge simulated time; a nil hook costs one branch.
type SyncHook interface {
	MailDeposited(from, to int)
	MailConsumed(from, to int)
}

// Stats counts mailbox events.
type Stats struct {
	Sends     uint64
	BusyWaits uint64 // sender found the slot still full
	Checks    uint64 // slot inspections
	Recvs     uint64
	IPIs      uint64

	// Hardened-protocol recovery counters.
	Retransmits  uint64 // lost deposits redelivered by the timeout timer
	Renudges     uint64 // deposited-but-unconsumed mails re-notified
	CorruptDrops uint64 // frames discarded on checksum mismatch
	DupFrames    uint64 // stale duplicate redeliveries discarded
	ShortFrames  uint64 // frames discarded on impossible length
	DeadDrops    uint64 // sends discarded because the receiver crashed
}

// pendingMail is the hardened sender's retransmission buffer for the last
// mail on one pair, kept until the receiver's acknowledgement shows up.
type pendingMail struct {
	active bool
	seq    uint16
	line   [phys.CacheLine]byte
}

// System is the chip-wide mailbox layer.
type System struct {
	chip *scc.Chip
	mode Mode
	n    int

	// fullSig[to*n+from] fires when a mail lands in (to,from);
	// freeSig[to*n+from] fires when the receiver consumes it.
	fullSig []*sim.Signal
	freeSig []*sim.Signal
	// anyFull[to] fires on every deposit for to (poll-mode idle wakeup).
	anyFull []*sim.Signal

	// Hardened per-pair protocol state, indexed like the signals.
	sendSeq  []uint16 // last sequence number assigned by the sender
	lastRecv []uint16 // last in-order sequence consumed by the receiver
	pending  []pendingMail

	hook SyncHook
	prof *profile.Profiler

	// serviceHooks, indexed by core, drain a core's own inbox while its
	// hardened send is blocked waiting for an acknowledgement. Without
	// this a pair of kernels replying to each other from their interrupt
	// handlers (where nested delivery is off) deadlocks: each waits for
	// an ack only the other can publish.
	serviceHooks []func() bool

	stats Stats
}

// New creates the mailbox layer in the given mode.
func New(chip *scc.Chip, mode Mode) *System {
	n := chip.Cores()
	s := &System{
		chip:         chip,
		mode:         mode,
		n:            n,
		fullSig:      make([]*sim.Signal, n*n),
		freeSig:      make([]*sim.Signal, n*n),
		anyFull:      make([]*sim.Signal, n),
		sendSeq:      make([]uint16, n*n),
		lastRecv:     make([]uint16, n*n),
		pending:      make([]pendingMail, n*n),
		serviceHooks: make([]func() bool, n),
	}
	eng := chip.Engine()
	for i := range s.fullSig {
		s.fullSig[i] = sim.NewSignal(eng)
		s.freeSig[i] = sim.NewSignal(eng)
	}
	for i := range s.anyFull {
		s.anyFull[i] = sim.NewSignal(eng)
	}
	return s
}

// Mode returns the delivery mode.
func (s *System) Mode() Mode { return s.mode }

// SetSyncHook installs the synchronization observer; nil disables it.
func (s *System) SetSyncHook(h SyncHook) { s.hook = h }

// SetServiceHook installs the kernel's inbox-drain callback for one core;
// only the hardened send path calls it (see serviceHooks).
func (s *System) SetServiceHook(core int, fn func() bool) { s.serviceHooks[core] = fn }

// SetProfiler installs the cycle-attribution profiler; nil disables it.
// Send and Check report their time as mailbox wait unless a more specific
// context (fault handling, barrier) is already active on the core.
func (s *System) SetProfiler(p *profile.Profiler) { s.prof = p }

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// slotOff returns the offset of sender's slot in the receiver's MPB.
func slotOff(sender int) int { return sender * phys.CacheLine }

func (s *System) pair(to, from int) int { return to*s.n + from }

func (s *System) checkPair(to, from int) {
	if to < 0 || to >= s.n || from < 0 || from >= s.n {
		panic(fmt.Sprintf("mailbox: pair (%d,%d) out of range", to, from))
	}
	if to == from {
		panic("mailbox: send to self")
	}
}

// seqAfter reports whether sequence a is newer than b in 16-bit circular
// arithmetic.
func seqAfter(a, b uint16) bool { return int16(a-b) > 0 }

// frameSum is the hardened frame checksum: a 16-bit sum over type, length,
// sequence and payload — everything but the flag byte and the checksum
// field itself, so any single-bit corruption is detected.
func frameSum(line *[phys.CacheLine]byte) uint16 {
	var sum uint32
	for _, b := range line[1:6] {
		sum += uint32(b)
	}
	for _, b := range line[8:] {
		sum += uint32(b)
	}
	return uint16(sum)
}

// Send deposits a mail from core from to core to, busy-waiting while the
// slot still holds an unconsumed mail. It runs on from's goroutine.
func (s *System) Send(from, to int, typ byte, payload []byte) {
	s.checkPair(to, from)
	// The kernel consults its cached copy of the liveness register before
	// committing a send: mail for a crashed core would sit in a slot nobody
	// ever drains and wedge this sender's next send to it forever. The
	// charge models the (cheap) register check; the mail itself is
	// discarded. CoreCrashed is always false on machines without crash
	// faults, so the branch perturbs nothing.
	if s.chip.CoreCrashed(to) {
		s.stats.DeadDrops++
		s.chip.MPBCharge(from, to)
		return
	}
	if s.chip.FaultsHardened() {
		s.sendHardened(from, to, typ, payload)
		return
	}
	if len(payload) > PayloadSize {
		panic(fmt.Sprintf("mailbox: payload %d exceeds %d bytes", len(payload), PayloadSize))
	}
	core := s.chip.Core(from)
	off := slotOff(from)
	s.prof.EnterIfIdle(from, profile.MailboxWait, core.Proc().LocalTime())
	defer func() { s.prof.Exit(from, core.Proc().LocalTime()) }()
	// The probe-deposit-notify sequence must be atomic against this core's
	// own interrupt handler: if the handler ran between the deposit and the
	// IPI and itself sent to the same destination, it would block on a slot
	// whose owner can never learn about the occupying mail (its IPI is not
	// raised yet) — a deadlock a real kernel prevents exactly this way,
	// with interrupts disabled around the send path.
	prevIRQ := core.InterruptsEnabled()
	defer core.SetInterruptsEnabled(prevIRQ)
	for {
		// Re-check liveness each round: the receiver may crash while we
		// wait on a slot it will never drain.
		if s.chip.CoreCrashed(to) {
			s.stats.DeadDrops++
			return
		}
		core.SetInterruptsEnabled(false)
		// Probe: has the receiver consumed the previous mail?
		if s.chip.MPBByte(from, to, off) == 0 {
			break
		}
		// Busy-wait with interrupts enabled so incoming requests are still
		// serviced while we wait (deadlock freedom for cross sends).
		core.SetInterruptsEnabled(prevIRQ)
		s.stats.BusyWaits++
		s.freeSig[s.pair(to, from)].Wait(core.Proc())
	}
	// One combined line write carries header and payload.
	var line [phys.CacheLine]byte
	line[0] = 1
	line[1] = typ
	binary.LittleEndian.PutUint16(line[2:], uint16(len(payload)))
	copy(line[4:], payload)
	s.deposit(from, to, off, &line)
	s.stats.Sends++
	if s.hook != nil {
		s.hook.MailDeposited(from, to)
	}
	s.chip.Tracer().Emit(core.Proc().LocalTime(), from, trace.KindMailSend, uint64(to), uint64(typ))
	now := core.Proc().LocalTime()
	s.fullSig[s.pair(to, from)].Fire(now)
	s.anyFull[to].Fire(now)
	if s.mode == ModeIPI {
		s.stats.IPIs++
		s.chip.RaiseIPI(from, to)
	}
}

// sendHardened is Send under the fault-tolerant protocol: the probe
// additionally requires the previous mail acknowledged (not just the slot
// flag clear — a deposit dropped in the mesh leaves the flag clear too),
// the frame carries sequence and checksum, and a retransmission timer is
// armed for the deposit.
func (s *System) sendHardened(from, to int, typ byte, payload []byte) {
	if len(payload) > HardenedPayloadSize {
		panic(fmt.Sprintf("mailbox: payload %d exceeds hardened capacity %d bytes",
			len(payload), HardenedPayloadSize))
	}
	core := s.chip.Core(from)
	off := slotOff(from)
	p := s.pair(to, from)
	s.prof.EnterIfIdle(from, profile.MailboxWait, core.Proc().LocalTime())
	defer func() { s.prof.Exit(from, core.Proc().LocalTime()) }()
	prevIRQ := core.InterruptsEnabled()
	defer core.SetInterruptsEnabled(prevIRQ)
	for {
		if s.chip.CoreCrashed(to) {
			s.stats.DeadDrops++
			return
		}
		core.SetInterruptsEnabled(false)
		var slot [phys.CacheLine]byte
		s.chip.MPBRead(from, to, off, slot[:])
		if slot[0] == 0 {
			pend := &s.pending[p]
			if !pend.active || !seqAfter(pend.seq, binary.LittleEndian.Uint16(slot[4:])) {
				pend.active = false
				break
			}
			// Flag clear but the previous mail unacknowledged: its deposit
			// was lost in the mesh (or discarded as corrupt). Wait for the
			// retransmission timer to get it through rather than silently
			// overwriting it.
		}
		core.SetInterruptsEnabled(prevIRQ)
		s.stats.BusyWaits++
		// The acknowledgement requires the peer to consume our mail — and
		// the peer may itself be blocked right here, sending a reply from
		// its interrupt handler (where nested delivery is off), with its
		// unacknowledged mail sitting in our slot. Drain our own inbox
		// before parking so that cycle always breaks.
		if svc := s.serviceHooks[from]; svc != nil && svc() {
			continue
		}
		// Park with a deadline: in polling mode nothing nudges a blocked
		// sender when mail lands in its slot, so the scan above must rerun
		// on retransmission cadence.
		at := core.Proc().LocalTime() + s.chip.Config().Core.Clock.Cycles(RetxTimeoutCoreCycles)
		core.Proc().Engine().At(at, func() { s.freeSig[p].Fire(at) })
		s.freeSig[p].Wait(core.Proc())
	}
	s.sendSeq[p]++
	seq := s.sendSeq[p]
	var line [phys.CacheLine]byte
	line[0] = 1
	line[1] = typ
	binary.LittleEndian.PutUint16(line[2:], uint16(len(payload)))
	binary.LittleEndian.PutUint16(line[4:], seq)
	copy(line[8:], payload)
	binary.LittleEndian.PutUint16(line[6:], frameSum(&line))
	s.pending[p] = pendingMail{active: true, seq: seq, line: line}
	s.deposit(from, to, off, &line)
	s.stats.Sends++
	if s.hook != nil {
		s.hook.MailDeposited(from, to)
	}
	s.chip.Tracer().Emit(core.Proc().LocalTime(), from, trace.KindMailSend, uint64(to), uint64(typ))
	now := core.Proc().LocalTime()
	s.fullSig[p].Fire(now)
	s.anyFull[to].Fire(now)
	if s.mode == ModeIPI {
		s.stats.IPIs++
		s.chip.RaiseIPI(from, to)
	}
	s.armRetx(from, to, seq, now)
}

// deposit writes the line into the receiver's slot through the fault
// injector: the deposit may be delayed, dropped in the mesh (the sender
// pays the access but the frame never lands), corrupted in flight, or
// redelivered later as a stale duplicate. Without an injector it is exactly
// one MPB line write.
func (s *System) deposit(from, to, off int, line *[phys.CacheLine]byte) {
	inj := s.chip.FaultInjector()
	core := s.chip.Core(from)
	tr := s.chip.Tracer()
	if !s.chip.SameChip(from, to) && inj.LinkPartitioned(core.Proc().LocalTime()) {
		// The inter-chip link is partitioned: the frame cannot cross. The
		// sender pays the access; the retransmission timer redelivers after
		// the heal.
		inj.NotePartitionDrop()
		tr.Emit(core.Proc().LocalTime(), from, trace.KindFaultInject,
			uint64(faults.Link), uint64(faults.Drop))
		s.chip.MPBCharge(from, to)
		return
	}
	if cyc := inj.DelayCycles(faults.Mail); cyc != 0 {
		tr.Emit(core.Proc().LocalTime(), from, trace.KindFaultInject,
			uint64(faults.Mail), uint64(faults.Delay))
		core.Cycles(cyc)
	}
	if inj.Drop(faults.Mail) {
		tr.Emit(core.Proc().LocalTime(), from, trace.KindFaultInject,
			uint64(faults.Mail), uint64(faults.Drop))
		s.chip.MPBCharge(from, to)
		return
	}
	wire := *line
	if inj.Corrupt(faults.Mail, wire[1:]) {
		tr.Emit(core.Proc().LocalTime(), from, trace.KindFaultInject,
			uint64(faults.Mail), uint64(faults.Corrupt))
	}
	s.chip.MPBWrite(from, to, off, wire[:])
	if inj.Dup(faults.Mail) {
		now := core.Proc().LocalTime()
		tr.Emit(now, from, trace.KindFaultInject, uint64(faults.Mail), uint64(faults.Dup))
		at := now + s.chip.Config().Core.Clock.Cycles(inj.DupDelayCycles())
		core.Proc().Engine().At(at, func() {
			// The stale copy lands only if the slot is free by then; the
			// hardened receiver discards it by sequence number, the plain
			// one consumes it as a fresh (wrong) mail.
			if !s.chip.SameChip(from, to) && inj.LinkPartitioned(at) {
				inj.NotePartitionDrop()
				return
			}
			if s.chip.MPB().Byte(to, off) != 0 {
				return
			}
			ghost := wire
			s.chip.MPB().Write(to, off, ghost[:])
			s.fullSig[s.pair(to, from)].Fire(at)
			s.anyFull[to].Fire(at)
			if s.mode == ModeIPI {
				s.chip.NudgeIPI(from, to)
			}
		})
	}
}

// armRetx schedules the hardened sender's retransmission timer for mail
// seq on pair (to,from). The timer models the sender kernel's timer
// interrupt: it runs in engine context and charges no core time. Until the
// receiver's acknowledgement shows up in the slot header it redeposits lost
// frames, doubling the timeout per attempt up to the backoff cap; it
// self-terminates once the mail is acknowledged or superseded. Once an
// intact frame is confirmed sitting in the slot the loss was on the notify
// side only: the timer re-notifies once and retires — the receiver's poll
// or rescue scan consumes the frame from there, and a timer that kept
// renudging mail the receiver never consumes (it may already be past
// caring) would keep the event queue alive forever.
func (s *System) armRetx(from, to int, seq uint16, start sim.Time) {
	p := s.pair(to, from)
	off := slotOff(from)
	clock := s.chip.Config().Core.Clock
	eng := s.chip.Engine()
	attempt, fires := 0, 0
	var fire func(at sim.Time)
	rearm := func(at sim.Time) {
		if fires >= RetxMaxFires {
			return // give up; the watchdog reports the frozen pair
		}
		if attempt < RetxBackoffShiftCap {
			attempt++
		}
		next := at + clock.Cycles(RetxTimeoutCoreCycles<<attempt)
		eng.At(next, func() { fire(next) })
	}
	notify := func(at sim.Time) {
		s.fullSig[p].Fire(at)
		s.anyFull[to].Fire(at)
		if s.mode == ModeIPI {
			s.chip.NudgeIPI(from, to)
		}
	}
	fire = func(at sim.Time) {
		fires++
		pend := &s.pending[p]
		if !pend.active || pend.seq != seq {
			return // superseded: the sender observed the acknowledgement
		}
		if s.chip.CoreCrashed(to) {
			// The receiver crashed: retransmitting to it would keep the
			// event queue alive forever. Retire the timer and the pending
			// mail; the sender's next send to this pair starts fresh.
			pend.active = false
			s.stats.DeadDrops++
			return
		}
		if inj := s.chip.FaultInjector(); !s.chip.SameChip(from, to) && inj.LinkPartitioned(at) {
			// The link is partitioned: nothing crosses until it heals. Keep
			// the timer armed so a retransmission lands after the heal —
			// retiring here (even on an intact remote frame) could strand a
			// receiver whose every notification fell inside the window.
			inj.NotePartitionDrop()
			s.chip.Tracer().Emit(at, from, trace.KindFaultInject,
				uint64(faults.Link), uint64(faults.Drop))
			rearm(at)
			return
		}
		var line [phys.CacheLine]byte
		s.chip.MPB().Read(to, off, line[:])
		slotSeq := binary.LittleEndian.Uint16(line[4:])
		if line[0] == 0 {
			if !seqAfter(seq, slotSeq) {
				pend.active = false // acknowledged
				return
			}
			// The deposit was lost or discarded: redeposit — itself subject
			// to injection, so a retransmission can be lost or corrupted
			// again and the next round recovers it.
			inj := s.chip.FaultInjector()
			s.stats.Retransmits++
			s.chip.Tracer().Emit(at, from, trace.KindRetransmit, uint64(to), uint64(seq))
			if inj.Drop(faults.Mail) {
				s.chip.Tracer().Emit(at, from, trace.KindFaultInject,
					uint64(faults.Mail), uint64(faults.Drop))
				rearm(at)
				return
			}
			wire := pend.line
			if inj.Corrupt(faults.Mail, wire[1:]) {
				s.chip.Tracer().Emit(at, from, trace.KindFaultInject,
					uint64(faults.Mail), uint64(faults.Corrupt))
			}
			s.chip.MPB().Write(to, off, wire[:])
			notify(at)
			rearm(at)
			return
		}
		if slotSeq == seq && binary.LittleEndian.Uint16(line[6:]) == frameSum(&line) {
			// The frame is in the slot, intact: only the notification was
			// lost. Renudge once and retire — delivery is now the receiver's
			// scan loop's problem, and the nudge below is fault-free.
			s.stats.Renudges++
			s.chip.Tracer().Emit(at, from, trace.KindRetransmit, uint64(to), uint64(seq))
			notify(at)
			return
		}
		// A corrupted copy of this mail or a stale duplicate occupies the
		// slot; the receiver discards it and this mail's fate shows up next
		// round.
		rearm(at)
	}
	first := start + clock.Cycles(RetxTimeoutCoreCycles)
	eng.At(first, func() { fire(first) })
}

// Receive inspects one receive slot on behalf of the receiver, consuming
// and returning the mail if present. Cost: the paper's ~100-cycle slot
// check, plus the MPB line read and flag clear when a mail is found. A
// malformed frame is discarded and reported as a *FrameError.
func (s *System) Receive(receiver, sender int) (Msg, bool, error) {
	s.checkPair(receiver, sender)
	core := s.chip.Core(receiver)
	s.prof.EnterIfIdle(receiver, profile.MailboxWait, core.Proc().LocalTime())
	defer func() { s.prof.Exit(receiver, core.Proc().LocalTime()) }()
	core.Sync()
	s.chip.CheckMailCost(receiver)
	s.stats.Checks++
	off := slotOff(sender)
	mpb := s.chip.MPB()
	if mpb.Byte(receiver, off) == 0 {
		return Msg{}, false, nil
	}
	if s.chip.FaultsHardened() {
		return s.receiveHardened(receiver, sender, off)
	}
	// Read the line and clear the flag (a local MPB access).
	var line [phys.CacheLine]byte
	s.chip.MPBRead(receiver, receiver, off, line[:])
	s.chip.MPBSetByte(receiver, receiver, off, 0)
	n := int(binary.LittleEndian.Uint16(line[2:]))
	if n > PayloadSize {
		// A frame this long cannot have been sent; drop it rather than read
		// out of bounds. The slot is genuinely free again, so the sender's
		// flag probe proceeds as usual.
		s.stats.ShortFrames++
		s.freeSig[s.pair(receiver, sender)].Fire(core.Proc().LocalTime())
		return Msg{}, false, &FrameError{Receiver: receiver, Sender: sender, Len: n,
			Reason: fmt.Sprintf("length exceeds capacity %d", PayloadSize)}
	}
	s.stats.Recvs++
	if s.hook != nil {
		s.hook.MailConsumed(sender, receiver)
	}
	s.chip.Tracer().Emit(core.Proc().LocalTime(), receiver, trace.KindMailRecv, uint64(sender), uint64(line[1]))
	msg := Msg{From: sender, Type: line[1]}
	copy(msg.Payload[:], line[4:4+n])
	s.freeSig[s.pair(receiver, sender)].Fire(core.Proc().LocalTime())
	return msg, true, nil
}

// receiveHardened validates checksum, length and sequence before consuming.
// The slot was already observed full; the caller charged the check cost.
func (s *System) receiveHardened(receiver, sender, off int) (Msg, bool, error) {
	core := s.chip.Core(receiver)
	p := s.pair(receiver, sender)
	var line [phys.CacheLine]byte
	s.chip.MPBRead(receiver, receiver, off, line[:])
	if line[0] == 0 {
		// The mail vanished between the flag peek and the line read: this
		// core's own interrupt handler serviced the slot while the read was
		// in flight (the rescue scan and the IPI path may interleave). The
		// earlier entrant consumed and acknowledged it; nothing is here.
		return Msg{}, false, nil
	}
	n := int(binary.LittleEndian.Uint16(line[2:]))
	seq := binary.LittleEndian.Uint16(line[4:])
	sum := binary.LittleEndian.Uint16(line[6:])
	if n > HardenedPayloadSize {
		// Discard without advancing the acknowledgement: the sender's
		// retransmission timer sees the frame unacknowledged and redeposits
		// a clean copy.
		s.stats.ShortFrames++
		s.ackSlot(receiver, off, s.lastRecv[p])
		return Msg{}, false, &FrameError{Receiver: receiver, Sender: sender, Len: n,
			Reason: fmt.Sprintf("length exceeds hardened capacity %d", HardenedPayloadSize)}
	}
	if sum != frameSum(&line) {
		s.stats.CorruptDrops++
		s.ackSlot(receiver, off, s.lastRecv[p])
		return Msg{}, false, &FrameError{Receiver: receiver, Sender: sender, Len: n,
			Reason: "checksum mismatch"}
	}
	if !seqAfter(seq, s.lastRecv[p]) {
		// Stale duplicate redelivery: drop it, re-acknowledge, and hand the
		// slot back to the sender.
		s.stats.DupFrames++
		s.ackSlot(receiver, off, s.lastRecv[p])
		s.freeSig[p].Fire(core.Proc().LocalTime())
		return Msg{}, false, nil
	}
	s.lastRecv[p] = seq
	s.ackSlot(receiver, off, seq)
	s.stats.Recvs++
	if s.hook != nil {
		s.hook.MailConsumed(sender, receiver)
	}
	s.chip.Tracer().Emit(core.Proc().LocalTime(), receiver, trace.KindMailRecv, uint64(sender), uint64(line[1]))
	msg := Msg{From: sender, Type: line[1]}
	copy(msg.Payload[:], line[8:8+n])
	s.freeSig[p].Fire(core.Proc().LocalTime())
	return msg, true, nil
}

// ackSlot clears the slot flag and publishes the receiver's cumulative
// acknowledgement in the sequence field: one charged 8-byte MPB write, the
// hardened counterpart of the plain protocol's one-byte flag clear (MPB
// transactions below a line cost the same).
func (s *System) ackSlot(receiver, off int, ack uint16) {
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[4:], ack)
	s.chip.MPBWrite(receiver, receiver, off, hdr[:])
}

// Check inspects one receive slot, consuming and returning the mail if
// present; malformed frames read as no mail (Receive reports them).
func (s *System) Check(receiver, sender int) (Msg, bool) {
	msg, ok, _ := s.Receive(receiver, sender)
	return msg, ok
}

// WaitAnySignal returns the signal fired whenever any mail is deposited for
// the receiver — the poll-mode idle loop parks on it.
func (s *System) WaitAnySignal(receiver int) *sim.Signal { return s.anyFull[receiver] }

// NoteCrashed wakes everyone the crashed core could be blocking: senders
// parked on its receive slots (which it will never drain) and waiters
// parked on mail or acknowledgements from it. Each woken party re-checks
// its condition against the liveness register and gives up or recovers.
// Called from engine context by the kernel's crash event.
func (s *System) NoteCrashed(id int, at sim.Time) {
	for other := 0; other < s.n; other++ {
		if other == id {
			continue
		}
		s.freeSig[s.pair(id, other)].Fire(at) // senders blocked sending to id
		s.freeSig[s.pair(other, id)].Fire(at) // (symmetry; id's own sends are moot)
		s.fullSig[s.pair(other, id)].Fire(at) // waiters on a reply from id
		s.anyFull[other].Fire(at)             // kernel WaitFor scans
	}
}

// DumpInFlight writes the protocol's in-flight state — pending unacked
// mails and occupied receive slots — as part of the watchdog's diagnostic
// dump. Functional reads only; charges no simulated time.
func (s *System) DumpInFlight(w io.Writer) {
	st := s.stats
	fmt.Fprintf(w, "mailbox: %d sends %d recvs %d busy-waits | recovery: %d retransmits %d renudges %d corrupt %d dup %d short %d dead\n",
		st.Sends, st.Recvs, st.BusyWaits, st.Retransmits, st.Renudges,
		st.CorruptDrops, st.DupFrames, st.ShortFrames, st.DeadDrops)
	mpb := s.chip.MPB()
	for to := 0; to < s.n; to++ {
		for from := 0; from < s.n; from++ {
			if to == from {
				continue
			}
			p := s.pair(to, from)
			pend := &s.pending[p]
			var hdr [8]byte
			mpb.Read(to, slotOff(from), hdr[:])
			if !pend.active && hdr[0] == 0 {
				continue
			}
			fmt.Fprintf(w, "  pair %d->%d: slot flag=%d type=%d seq=%d | pending active=%v seq=%d | lastRecv=%d\n",
				from, to, hdr[0], hdr[1], binary.LittleEndian.Uint16(hdr[4:]),
				pend.active, pend.seq, s.lastRecv[p])
		}
	}
}
