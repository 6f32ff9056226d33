package sim

// The engine's pending-event set: an inlined, typed 4-ary min-heap plus an
// append-only FIFO for events scheduled at the engine's current dispatch
// time, dispatching in the total order (time, insertion sequence). No
// interface{} boxing, so scheduling an event performs no allocation beyond
// the occasional slice growth, and the common "schedule at the time being
// dispatched" case (interrupt posts, mailbox wakes, handler chains) is a
// plain append instead of a sift-up. TestQueueEquivalence drives it against
// a sorted-slice oracle.

type event struct {
	at  Time
	seq uint64
	fn  func()
	// Data-carrying process wake (fn == nil): resumes proc if its wakeSeq
	// still matches.
	proc    *Proc
	wakeSeq uint64
}

// eventLess is the engine's dispatch order: time, then insertion sequence.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// quadQueue holds events not yet dispatched. Events whose time equals the
// engine clock at push time go to the FIFO; all FIFO entries share that
// timestamp (the clock cannot advance while the FIFO is non-empty, because
// its entries are then the queue minimum) and carry increasing sequence
// numbers, so append order is dispatch order. Everything else goes to the
// 4-ary heap. Heap entries with the same timestamp as FIFO entries were
// necessarily pushed earlier (before the clock reached that time) and so
// carry smaller sequence numbers; the (time, seq) comparison in pop and
// head therefore merges the two structures exactly.
type quadQueue struct {
	heap     []event
	fifo     []event
	fifoHead int
}

func (q *quadQueue) len() int { return len(q.heap) + len(q.fifo) - q.fifoHead }

// push inserts ev; now is the engine clock at the time of the call.
func (q *quadQueue) push(ev event, now Time) {
	if ev.at == now {
		q.fifo = append(q.fifo, ev)
		return
	}
	q.heap = append(q.heap, ev)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

// head returns the next event to dispatch without removing it.
func (q *quadQueue) head() (event, bool) {
	have := q.fifoHead < len(q.fifo)
	var m event
	if have {
		m = q.fifo[q.fifoHead]
	}
	if len(q.heap) > 0 && (!have || eventLess(q.heap[0], m)) {
		m = q.heap[0]
		have = true
	}
	return m, have
}

func (q *quadQueue) pop() event {
	if q.fifoHead < len(q.fifo) {
		f := q.fifo[q.fifoHead]
		if len(q.heap) == 0 || eventLess(f, q.heap[0]) {
			q.fifo[q.fifoHead] = event{} // drop the fn reference
			q.fifoHead++
			if q.fifoHead == len(q.fifo) {
				q.fifo = q.fifo[:0]
				q.fifoHead = 0
			}
			return f
		}
	}
	return q.popHeap()
}

func (q *quadQueue) popHeap() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the fn reference
	h = h[:n]
	q.heap = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[best]) {
				best = c
			}
		}
		if !eventLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}
