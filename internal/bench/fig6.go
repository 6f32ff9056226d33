package bench

import (
	"metalsvm/internal/core"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/mesh"
	"metalsvm/internal/scc"
)

// Fig6Point is one x-position of Figure 6: mail ping-pong half-round-trip
// latency between two cores at a given mesh distance, with the receiver
// discovering mail by polling vs by IPI.
type Fig6Point struct {
	Hops      int
	Peer      int // the core paired with core 0
	PollingUS float64
	IPIUS     float64
}

// Fig6 reproduces Figure 6: "Average latency according to the distance".
// Only the two pinging cores are activated, as in the paper, so the
// polling kernel checks a single receive buffer and comes out faster than
// the interrupt-driven path (whose gap is the IRQ entry overhead). A
// non-nil topo sweeps that machine instead of the paper chip: the x-axis
// spans its own mesh diameter (on-chip — the inter-chip link has no hop
// count; see the scale harness for cross-chip latencies).
func Fig6(rounds int, topo *scc.Config) []Fig6Point {
	chip := ShrunkChip(topo)
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	// Fix the x-axis serially, then fan the independent ping-pong
	// simulations (one per distance and mode) across the host pool; each
	// writes its own slot, so the sweep is bit-identical at any
	// parallelism.
	var out []Fig6Point
	for h := 0; h <= m.MaxHops(); h++ {
		peer := m.CoreAtDistance(0, h)
		if peer < 0 {
			continue
		}
		out = append(out, Fig6Point{Hops: h, Peer: peer})
	}
	var tasks []func()
	for i := range out {
		p := &out[i]
		opts := core.Options{Topology: &chip, Members: pair(p.Peer)}
		tasks = append(tasks,
			func() { p.PollingUS = pingPong(mailbox.ModePolling, p.Peer, rounds, false, opts).US },
			func() { p.IPIUS = pingPong(mailbox.ModeIPI, p.Peer, rounds, false, opts).US })
	}
	runTasks(tasks)
	return out
}

// Fig6Cell is Figure 6's representative cell: the IPI ping-pong between
// core 0 and the core farthest from it on the mesh, the two cores alone.
// opts.Topology nil selects the paper chip with shrunk memories;
// opts.Members is ignored (the pair is the member set).
func Fig6Cell(rounds int, opts core.Options) Record {
	chip := ShrunkChip(opts.Topology)
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	peer := -1
	for h := m.MaxHops(); h >= 0 && peer < 0; h-- {
		peer = m.CoreAtDistance(0, h)
	}
	opts.Topology = &chip
	opts.Members = pair(peer)
	return pingPong(mailbox.ModeIPI, peer, rounds, false, opts)
}

// pair returns the member set {0, peer} (core 0 has the lowest id, so the
// set is sorted).
func pair(peer int) []int { return []int{0, peer} }
