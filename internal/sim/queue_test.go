package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueueEquivalence drives quadQueue with randomized push/pop workloads
// (fixed seed: the test itself is deterministic) and checks it against a
// sorted-slice oracle. The engine clock follows the dispatch rule — it
// advances to every popped event's timestamp — so the now-FIFO path is
// exercised heavily.
func TestQueueEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q quadQueue
		var oracle []event
		var now Time
		var seq uint64

		push := func(at Time) {
			seq++
			ev := event{at: at, seq: seq}
			q.push(ev, now)
			oracle = append(oracle, ev)
		}
		pop := func() {
			sort.Slice(oracle, func(i, j int) bool { return eventLess(oracle[i], oracle[j]) })
			want := oracle[0]
			oracle = oracle[1:]
			h, ok := q.head()
			if !ok || !sameEvent(h, want) {
				t.Fatalf("trial %d: head=%v(%v), want %v", trial, h, ok, want)
			}
			got := q.pop()
			if !sameEvent(got, want) {
				t.Fatalf("trial %d: pop=%v, want %v", trial, got, want)
			}
			if got.at < now {
				t.Fatalf("trial %d: time went backwards: %d < %d", trial, got.at, now)
			}
			now = got.at
		}

		for op := 0; op < 400; op++ {
			if len(oracle) == 0 || rng.Intn(3) != 0 {
				// Bias toward now-scheduling to stress the FIFO path.
				at := now
				if rng.Intn(2) == 0 {
					at += Time(rng.Intn(100))
				}
				push(at)
			} else {
				pop()
			}
		}
		for len(oracle) > 0 {
			pop()
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: queue not drained: %d", trial, q.len())
		}
	}
}

// sameEvent compares the ordering identity of two events (the fn field is
// not comparable).
func sameEvent(a, b event) bool { return a.at == b.at && a.seq == b.seq }

// TestQueueFIFOOrder checks the append fast path preserves insertion order
// among same-time events, including against heap entries scheduled for that
// time earlier (which must dispatch first: smaller sequence numbers).
func TestQueueFIFOOrder(t *testing.T) {
	var q quadQueue
	// Scheduled before the clock reaches 100: goes to the heap.
	q.push(event{at: 100, seq: 1}, 0)
	q.push(event{at: 0, seq: 2}, 0)
	if got := q.pop(); got.seq != 2 {
		t.Fatalf("pop seq = %d, want 2", got.seq)
	}
	// Clock now at 100: same-time pushes take the FIFO.
	q.push(event{at: 100, seq: 3}, 100)
	q.push(event{at: 100, seq: 4}, 100)
	for want := uint64(1); want <= 4; want++ {
		if want == 2 {
			continue
		}
		if got := q.pop(); got.seq != want {
			t.Fatalf("pop seq = %d, want %d", got.seq, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty: %d", q.len())
	}
}

// BenchmarkEngineSchedule measures raw schedule/dispatch throughput: each
// iteration pushes one event through After and dispatches one, holding the
// queue at a realistic depth.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < depth; i++ {
				e.At(Time(i), func() {})
			}
			nop := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(Duration(i%7), nop)
				ev := e.queue.pop()
				e.now = ev.at
			}
		})
	}
}

// BenchmarkEngineScheduleAtNow isolates the FIFO append fast path.
func BenchmarkEngineScheduleAtNow(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(0, nop)
		e.queue.pop()
	}
}

func benchName(prefix string, n int) string {
	if n >= 1024 {
		return prefix + "1k"
	}
	return prefix + "16"
}
