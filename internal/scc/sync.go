package scc

import (
	"metalsvm/internal/cpu"
	"metalsvm/internal/faults"
	"metalsvm/internal/mesh"
	"metalsvm/internal/phys"
	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// This file holds the chip's synchronous primitives: operations whose
// effects must be globally ordered (mailbox flags, test-and-set, ownership
// metadata, IPIs). Each one syncs the issuing core to global time, charges
// the transaction latency, syncs again, and only then applies the
// functional effect — so the effect lands exactly at its completion time
// and every other synced observer sees a consistent order.

// TASHook observes test-and-set register transitions: a successful
// TestAndSet (the caller now holds the register) and the clear that lands.
// Dropped requests and dropped clears are not transitions and are not
// reported. Methods run on the issuing core's goroutine and must not charge
// simulated time; a nil hook costs one branch per operation.
type TASHook interface {
	// TASAcquired: core's test-and-set of reg succeeded.
	TASAcquired(core, reg int, at sim.Time)
	// TASReleased: core's clear of reg landed.
	TASReleased(core, reg int, at sim.Time)
}

func (ch *Chip) syncCharge(core int, lat sim.Duration) *cpu.Core {
	c := ch.cores[core]
	if cyc := ch.faults.StallCyclesOn(core); cyc != 0 {
		ch.tracer.Emit(c.Now(), core, trace.KindFaultInject,
			uint64(faults.NumRoutes), uint64(faults.Stall))
		lat += ch.coreClock().Cycles(cyc)
	}
	c.Sync()
	c.Proc().Advance(lat)
	c.Sync()
	return c
}

// injectDelay draws a fault-injected mesh delay for the route (zero without
// an injector) and traces the injection.
func (ch *Chip) injectDelay(core int, r faults.Route) sim.Duration {
	cyc := ch.faults.DelayCyclesOn(core, r)
	if cyc == 0 {
		return 0
	}
	ch.tracer.Emit(ch.cores[core].Now(), core, trace.KindFaultInject,
		uint64(r), uint64(faults.Delay))
	return ch.coreClock().Cycles(cyc)
}

// hopsCores returns the mesh hop count between two global core ids and
// whether the path crosses the inter-chip link: same-chip transactions
// take the direct XY route; crossings travel the local mesh to the
// system-interface port, the link, and the remote mesh from that port.
func (ch *Chip) hopsCores(a, b int) (hops int, cross bool) {
	if ch.SameChip(a, b) {
		return ch.mesh.HopsCores(ch.localCore(a), ch.localCore(b)), false
	}
	return ch.gicHops(a) + ch.gicHops(b), true
}

// mpbLatency is an MPB access from core to owner's buffer: fixed core-side
// cost plus a mesh round trip (zero hops when owner shares the tile; the
// local fixed cost still applies, as measured on the SCC). A remote-chip
// owner adds a link round trip carrying one line.
func (ch *Chip) mpbLatency(core, owner int) sim.Duration {
	hops, cross := ch.hopsCores(core, owner)
	ch.meshStats[core].MPBAccesses++
	ch.countHops(core, hops)
	lat := ch.coreClock().Cycles(ch.cfg.Lat.MPBCoreCycles) +
		ch.mesh.RoundTrip(hops) +
		ch.injectDelay(core, faults.MPB)
	if cross {
		lat += ch.link.RoundTrip(phys.CacheLine) + ch.linkCross(core)
	}
	return lat
}

// MPBCharge charges core one MPB access to owner's buffer without a
// functional effect — the cost of a deposit whose packet the fault injector
// dropped in the mesh.
func (ch *Chip) MPBCharge(core, owner int) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
}

// MPBRead synchronously reads from owner's MPB on behalf of core.
func (ch *Chip) MPBRead(core, owner, off int, dst []byte) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.Read(owner, off, dst)
}

// MPBWrite synchronously writes to owner's MPB on behalf of core.
func (ch *Chip) MPBWrite(core, owner, off int, src []byte) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.Write(owner, off, src)
}

// MPBRead16 reads a 16-bit word from owner's MPB.
func (ch *Chip) MPBRead16(core, owner, off int) uint16 {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	return ch.mpb.Read16(owner, off)
}

// MPBWrite16 writes a 16-bit word to owner's MPB.
func (ch *Chip) MPBWrite16(core, owner, off int, v uint16) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.Write16(owner, off, v)
}

// MPBByte reads one byte from owner's MPB (flag checks).
func (ch *Chip) MPBByte(core, owner, off int) byte {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	return ch.mpb.Byte(owner, off)
}

// MPBSetByte writes one byte to owner's MPB (flag toggles).
func (ch *Chip) MPBSetByte(core, owner, off int, v byte) {
	ch.syncCharge(core, ch.mpbLatency(core, owner))
	ch.mpb.SetByte(owner, off, v)
}

func (ch *Chip) tasLatency(core, reg int) sim.Duration {
	hops, cross := ch.hopsCores(core, reg)
	ch.meshStats[core].TASAccesses++
	ch.countHops(core, hops)
	lat := ch.coreClock().Cycles(ch.cfg.Lat.TASCoreCycles) +
		ch.mesh.RoundTrip(hops)
	if cross {
		lat += ch.link.RoundTrip(8) + ch.linkCross(core)
	}
	return lat
}

// TASLock attempts the test-and-set register reg on behalf of core,
// reporting whether the lock was acquired. A fault-injected drop loses the
// request in the mesh: the core pays the round trip but the register is
// untouched and the attempt reads as contended, so the caller's existing
// retry loop recovers naturally.
func (ch *Chip) TASLock(core, reg int) bool {
	c := ch.syncCharge(core, ch.tasLatency(core, reg))
	if ch.faults.Drop(faults.TAS) {
		ch.tracer.Emit(c.Now(), core, trace.KindFaultInject,
			uint64(faults.TAS), uint64(faults.Drop))
		return false
	}
	won := ch.tas.TestAndSet(reg)
	if won && ch.tasHook != nil {
		ch.tasHook.TASAcquired(core, reg, c.Now())
	}
	return won
}

// TASUnlock releases the test-and-set register. A fault-injected drop loses
// the clear: unhardened, the register silently stays set (a stuck lock the
// watchdog will eventually report); hardened, the releaser re-issues the
// clear until it lands — safe, because the bit never went to zero, so no
// other core can have acquired the lock in between.
func (ch *Chip) TASUnlock(core, reg int) {
	for {
		c := ch.syncCharge(core, ch.tasLatency(core, reg))
		if !ch.faults.Drop(faults.TAS) {
			ch.tas.Clear(reg)
			if ch.tasHook != nil {
				ch.tasHook.TASReleased(core, reg, c.Now())
			}
			return
		}
		ch.tracer.Emit(c.Now(), core, trace.KindFaultInject,
			uint64(faults.TAS), uint64(faults.Drop))
		if !ch.harden {
			return
		}
	}
}

// uncachedLatency is a synchronous uncached DDR access (the SVM metadata —
// ownership vector — lives in uncached shared memory).
func (ch *Chip) uncachedLatency(core int, paddr uint32) sim.Duration {
	return ch.ddrReadLatency(core, paddr)
}

// PhysRead32 synchronously reads an uncached 32-bit word.
func (ch *Chip) PhysRead32(core int, paddr uint32) uint32 {
	ch.syncCharge(core, ch.uncachedLatency(core, paddr))
	return ch.mem.Read32(paddr)
}

// PhysWrite32 synchronously writes an uncached 32-bit word.
func (ch *Chip) PhysWrite32(core int, paddr uint32, v uint32) {
	ch.syncCharge(core, ch.uncachedLatency(core, paddr))
	ch.mem.Write32(paddr, v)
}

// ZeroSharedFrame zeroes one shared frame through core's write path with
// the write-combine buffer: the cost of 4 KiB of combined line writes. Used
// by first-touch allocation.
func (ch *Chip) ZeroSharedFrame(core int, paddr uint32) {
	c := ch.cores[core]
	frame := ch.layout.FrameSize()
	lines := frame / 32
	var total sim.Duration
	for i := uint32(0); i < lines; i++ {
		total += ch.ddrLineWriteLatency(core, paddr+i*32)
	}
	c.Proc().Advance(total)
	ch.mem.ZeroFrame(paddr / frame)
}

// FrameCopyLatency returns the cost of copying one frame between two
// physical locations through a core's uncached path: a line read plus a
// posted line write per cache line (used by next-touch page migration).
func (ch *Chip) FrameCopyLatency(core int, src, dst uint32) sim.Duration {
	lines := ch.layout.FrameSize() / 32
	var total sim.Duration
	for i := uint32(0); i < lines; i++ {
		total += ch.ddrReadLatency(core, src+i*32) + ch.ddrLineWriteLatency(core, dst+i*32)
	}
	return total
}

// CheckMailCost charges the fixed cost of inspecting one mailbox slot
// (about 100 core cycles on the SCC, per the paper).
func (ch *Chip) CheckMailCost(core int) {
	ch.cores[core].Cycles(ch.cfg.Lat.MailCheckCycles)
}

// RaiseIPI sends an inter-processor interrupt from core to core through
// the GIC: the sender pays the register write to the system interface; the
// interrupt is delivered to the target after FPGA processing and mesh
// traversal, asynchronously.
func (ch *Chip) RaiseIPI(from, to int) {
	c := ch.cores[from]
	ch.tracer.Emit(c.Now(), from, trace.KindIPI, uint64(to), 0)
	ch.meshStats[from].IPIs++
	ch.countHops(from, ch.gicHops(from)+ch.gicHops(to))
	c.Sync()
	raise := ch.coreClock().Cycles(ch.cfg.Lat.IPIRaiseCoreCycles) +
		ch.mesh.OneWay(ch.gicHops(from))
	c.Proc().Advance(raise)
	c.Sync()
	if ch.faults.Drop(faults.IPI) {
		// The interrupt packet vanished between the system interface and the
		// target: the sender already paid the raise and learns nothing.
		ch.tracer.Emit(c.Now(), from, trace.KindFaultInject,
			uint64(faults.IPI), uint64(faults.Drop))
		return
	}
	deliver := ch.cfg.Mesh.Clock.Cycles(ch.cfg.Lat.GICCycles) +
		ch.mesh.OneWay(ch.gicHops(to))
	if cyc := ch.faults.DelayCycles(faults.IPI); cyc != 0 {
		ch.tracer.Emit(c.Now(), from, trace.KindFaultInject,
			uint64(faults.IPI), uint64(faults.Delay))
		deliver += ch.coreClock().Cycles(cyc)
	}
	if !ch.SameChip(from, to) {
		// The interrupt crosses to the target chip's GIC over the link; it
		// can be lost or delayed there independently of the IPI route.
		if ch.faults.LinkPartitioned(c.Now()) {
			ch.faults.NotePartitionDrop()
			ch.tracer.Emit(c.Now(), from, trace.KindFaultInject,
				uint64(faults.Link), uint64(faults.Drop))
			return
		}
		if ch.faults.Drop(faults.Link) {
			ch.tracer.Emit(c.Now(), from, trace.KindFaultInject,
				uint64(faults.Link), uint64(faults.Drop))
			return
		}
		ch.meshStats[from].LinkCrossings++
		deliver += ch.link.OneWay(8)
		if cyc := ch.faults.DelayCycles(faults.Link); cyc != 0 {
			ch.tracer.Emit(c.Now(), from, trace.KindFaultInject,
				uint64(faults.Link), uint64(faults.Delay))
			deliver += ch.coreClock().Cycles(cyc)
		}
	}
	target := ch.cores[to]
	ch.eng.After(deliver, func() {
		ch.gic.Raise(from, to)
		target.PostInterrupt(cpu.IRQIPI)
	})
}

// NudgeIPI re-delivers the interrupt half of an IPI from engine context —
// the hardened mailbox's retransmission timer uses it to re-notify a
// receiver whose original interrupt was dropped. It models the kernel's
// timer-driven recovery path, so it charges no core time and is itself
// fault-free.
func (ch *Chip) NudgeIPI(from, to int) {
	if !ch.SameChip(from, to) && ch.faults.LinkPartitioned(ch.eng.Now()) {
		// A cross-chip re-notify during a link partition is lost like any
		// other link crossing; the retransmission timer stays armed and
		// re-nudges after the heal.
		ch.faults.NotePartitionDrop()
		return
	}
	ch.meshStats[from].IPIs++
	ch.countHops(from, ch.gicHops(from)+ch.gicHops(to))
	deliver := ch.cfg.Mesh.Clock.Cycles(ch.cfg.Lat.GICCycles) +
		ch.mesh.OneWay(ch.gicHops(to))
	if !ch.SameChip(from, to) {
		ch.meshStats[from].LinkCrossings++
		deliver += ch.link.OneWay(8)
	}
	target := ch.cores[to]
	ch.eng.After(deliver, func() {
		ch.gic.Raise(from, to)
		target.PostInterrupt(cpu.IRQIPI)
	})
}

// gicHops is the mesh distance between a core's tile and its own chip's
// system interface port — where the GIC sits and, on multi-chip machines,
// the inter-chip link attaches. Every chip places the port at the same
// local coordinate.
func (ch *Chip) gicHops(core int) int {
	return mesh.Hops(ch.mesh.CoordOfCore(ch.localCore(core)), ch.cfg.GICPort)
}
