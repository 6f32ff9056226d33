package kvstore

import (
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// queuedReq is one admitted request waiting in a server's queue.
type queuedReq struct {
	from     int
	op       int
	key      uint32
	seq      uint64
	token    uint32
	deadline sim.Time
}

// serverState is one server rank's host-side bookkeeping. Only that rank's
// kernel touches it.
type serverState struct {
	q       []queuedReq
	stops   int
	stopped bool

	// Counters for the report.
	Handled       uint64 // requests seen
	Applied       uint64 // puts applied to the store
	Reads         uint64 // gets answered
	Shed          uint64 // requests refused because the queue was full
	Dedups        uint64 // duplicate puts refused by the sequence check
	DeadlineDrops uint64 // queued requests dropped past their deadline
}

// shedCycles is the cost of refusing a request — a fraction of a real
// service, charged so shedding is cheap but not free.
const shedCycles = 60

// runServer is a server rank's life after setup (its handlers were
// registered back in Main, before the collectives, so no request can beat
// them). It prefaults its primary shards, then serves its queue until every
// client has said stop. The queue exists because a mail handler must never
// block: the handler only admits or sheds, and the serve loop — a normal
// kernel context that may fault, acquire page ownership and wait — applies
// requests and replies. Admission control is the queue bound itself:
// arrivals past QueueBound are shed with a cheap reply before any state
// change.
func (a *App) runServer(h *svm.Handle, idx int, mutBase, hotBase uint32) {
	p := a.p
	k := h.Kernel()
	c := k.Core()
	st := &a.sv[idx]

	// Prefault: touch every slot of the shards this server primaries, so
	// the serve path mutates owned pages without ownership traffic. (A
	// failover successor still faults and reclaims on first touch — in its
	// serve loop, where blocking is fine.)
	for shard := 0; shard < p.Shards; shard++ {
		if p.primaryOf(shard) != idx {
			continue
		}
		for s := 0; s < p.SlotsPerShard; s++ {
			c.Store64(slotAddr(mutBase, uint32(shard*p.SlotsPerShard+s)), 0)
		}
	}

	for {
		k.WaitFor(func() bool { return len(st.q) > 0 || st.stops >= a.clients })
		if len(st.q) == 0 {
			break
		}
		for len(st.q) > 0 {
			rq := st.q[0]
			st.q = st.q[1:]
			a.process(st, k, rq, mutBase, hotBase)
		}
	}
	st.stopped = true
}

// handleRequest is the mail handler: admission control only, never
// blocking. Requests past the queue bound are shed immediately; admitted
// ones wait for the serve loop.
func (a *App) handleRequest(st *serverState, k *kernel.Kernel, m mailbox.Msg) {
	if st.stopped {
		return // late retransmission after shutdown: the client has moved on
	}
	st.Handled++
	if len(st.q) >= a.p.QueueBound {
		st.Shed++
		k.Core().Cycles(shedCycles)
		var reply [16]byte
		mailbox.PutU32(reply[:], 0, m.U32(3))
		mailbox.PutU32(reply[:], 1, statusShed)
		k.Send(m.From, msgKVReply, reply[:])
		return
	}
	st.q = append(st.q, queuedReq{
		from:     m.From,
		op:       int(m.U32(0)),
		key:      m.U32(1),
		seq:      uint64(m.U32(2)),
		token:    m.U32(3),
		deadline: sim.Time(uint64(m.U32(4)) | uint64(m.U32(5))<<32),
	})
}

// handleStop counts client shutdown notices; the serve loop drains and
// exits once every client has finished.
func (a *App) handleStop(st *serverState) { st.stops++ }

// process applies one queued request and replies. A request whose deadline
// already passed is dropped without a reply — the client has expired it,
// and skipping the work is exactly what a deadline-aware server is for.
func (a *App) process(st *serverState, k *kernel.Kernel, rq queuedReq, mutBase, hotBase uint32) {
	c := k.Core()
	if c.Now() > rq.deadline {
		st.DeadlineDrops++
		return
	}
	c.Cycles(a.p.ServiceCycles)
	var word uint64
	switch rq.op {
	case opPut:
		addr := slotAddr(mutBase, rq.key)
		word = c.Load64(addr)
		if rq.seq > wordSeq(word) {
			word = encode(rq.key, rq.seq)
			c.Store64(addr, word)
			// Commit before acknowledging: mutable SVM pages write through
			// the write-combine buffer, and a crash loses whatever still
			// sits there. Draining the WCB makes the put durable in memory,
			// so an OK reply is a promise a dead server cannot break.
			c.FlushWCB()
			st.Applied++
		} else {
			// Already applied (retry of an acknowledged-lost put, or a
			// stale frame): acknowledge without touching the store.
			st.Dedups++
		}
	case opHotGet:
		word = c.Load64(slotAddr(hotBase, rq.key))
		st.Reads++
	default:
		word = c.Load64(slotAddr(mutBase, rq.key))
		st.Reads++
	}
	var reply [16]byte
	mailbox.PutU32(reply[:], 0, rq.token)
	mailbox.PutU32(reply[:], 1, statusOK)
	mailbox.PutU32(reply[:], 2, uint32(word))
	mailbox.PutU32(reply[:], 3, uint32(word>>32))
	k.Send(rq.from, msgKVReply, reply[:])
}
