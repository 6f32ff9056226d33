package bench

import (
	"sort"

	"metalsvm/internal/core"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/mesh"
	"metalsvm/internal/scc"
)

// Fig7Point is one x-position of Figure 7: ping-pong latency between cores
// 0 and 30 (5 hops apart) as a function of the number of activated cores.
type Fig7Point struct {
	Cores      int
	PollingUS  float64 // all idle cores poll every buffer: grows with cores
	IPIUS      float64 // IPI names the sender: flat
	IPINoiseUS float64 // IPI while the other cores mail each other: flat
}

// fig7MembersOn returns core 0, the given peer, and enough filler cores
// for a total of n, sorted ascending.
func fig7MembersOn(peer, n int) []int {
	members := []int{0, peer}
	for c := 1; len(members) < n; c++ {
		if c != peer {
			members = append(members, c)
		}
	}
	sort.Ints(members)
	return members
}

// Fig7 reproduces Figure 7: "Average latency between core 0 and 30". A
// nil coreCounts selects the default sweep. A non-nil topo runs the sweep
// on that machine: the pair is core 0 and the topology's equivalent of the
// paper's 5-hop peer, and the default sweep doubles from 2 up to the
// machine's total core count.
func Fig7(rounds int, coreCounts []int, topo *scc.Config) []Fig7Point {
	chip, peer := fig7Pair(topo)
	if coreCounts == nil && topo == nil {
		coreCounts = []int{2, 4, 8, 16, 24, 32, 40, 48} // the paper plots 2..48
	}
	if coreCounts == nil {
		total := core.AllCores(chip)
		for n := 2; n < len(total); n *= 2 {
			coreCounts = append(coreCounts, n)
		}
		coreCounts = append(coreCounts, len(total))
	}
	// One independent simulation per (core count, mode) cell, fanned
	// across the host pool; each writes its own field of its own point.
	out := make([]Fig7Point, len(coreCounts))
	var tasks []func()
	for i, n := range coreCounts {
		p := &out[i]
		p.Cores = n
		opts := core.Options{Topology: &chip, Members: fig7MembersOn(peer, n)}
		tasks = append(tasks,
			func() { p.PollingUS = pingPong(mailbox.ModePolling, peer, rounds, false, opts).US },
			func() { p.IPIUS = pingPong(mailbox.ModeIPI, peer, rounds, false, opts).US },
			func() { p.IPINoiseUS = pingPong(mailbox.ModeIPI, peer, rounds, true, opts).US })
	}
	runTasks(tasks)
	return out
}

// Fig7Cell is Figure 7's representative cell: the polling ping-pong between
// core 0 and its Figure 7 peer with n activated cores — the configuration
// where idle-core mailbox sweeps dominate. opts.Topology nil selects the
// paper chip with shrunk memories; opts.Members is ignored (n picks the
// activated set).
func Fig7Cell(rounds, n int, opts core.Options) Record {
	chip, peer := fig7Pair(opts.Topology)
	opts.Topology = &chip
	opts.Members = fig7MembersOn(peer, n)
	return pingPong(mailbox.ModePolling, peer, rounds, false, opts)
}

// fig7Pair returns the shrunk machine Figure 7 runs on and the far end of
// its measuring pair. The paper pairs core 0 with core 30 (5 hops); on
// other grids the first core found at 5 hops — or the mesh diameter when
// the grid is smaller — takes that role, falling back to core 1 on a
// single-tile grid.
func fig7Pair(topo *scc.Config) (scc.Config, int) {
	chip := ShrunkChip(topo)
	if topo == nil {
		return chip, 30
	}
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	for h := min(5, m.MaxHops()); h > 0; h-- {
		if peer := m.CoreAtDistance(0, h); peer > 0 {
			return chip, peer
		}
	}
	return chip, 1
}

// Fig7Peer reports the pair Fig7 measures on a topology (nil: the paper
// chip): the far end's core id and its hop distance from core 0, for table
// headers.
func Fig7Peer(topo *scc.Config) (peer, hops int) {
	chip, peer := fig7Pair(topo)
	m, err := mesh.New(chip.Mesh)
	if err != nil {
		panic(err)
	}
	return peer, m.HopsCores(0, peer)
}
