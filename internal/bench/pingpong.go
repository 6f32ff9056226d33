// Package bench contains the experiment harness: one sweep per table and
// figure of the paper's evaluation (Section 7), the ablation studies of the
// design decisions, and one runner per harness cell. A cell runner takes
// the cell's own parameters plus a core.Options whose Topology, Members,
// Faults, Observe and ReplicatedDirectory fields act as modifiers, and
// returns one Record. cmd/sccbench formats the results like the paper's
// tables and series.
package bench

import (
	"metalsvm/internal/core"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// Mail types used by the harness.
const (
	msgPing  = kernel.MsgUser + 8
	msgPong  = kernel.MsgUser + 9
	msgNoise = kernel.MsgUser + 10
	msgDone  = kernel.MsgUser + 11
)

// ShrunkChip shrinks a topology's memories the way the harness cells do
// (1 MiB private, ~16 MiB shared — the mailbox experiments never touch the
// SVM pool), keeping the shared region striped over the machine's
// controller count so the configuration still validates. A nil topo
// selects the paper chip.
func ShrunkChip(topo *scc.Config) scc.Config {
	cfg := scc.PaperSCC()
	if topo != nil {
		cfg = *topo
	}
	cfg = cfg.Normalized()
	cfg.PrivateMemPerCore = 1 << 20
	unit := uint32(cfg.Chips*len(cfg.Mesh.MemoryControllers)) * pgtable.PageSize
	shared := uint32(16 << 20)
	shared -= shared % unit
	if shared < unit {
		shared = unit
	}
	cfg.SharedMem = shared
	return cfg
}

// pingPong boots opts.Members on a bare kernel cluster (no SVM) with the
// given mailbox mode, runs rounds/4 warm-up and then rounds ping-pongs
// between core 0 and peer (both must be members), and reports the mean
// half-round-trip latency as the record's US. noise makes the filler cores
// exchange mail among themselves for the whole measurement (Figure 7's
// third curve). opts.Topology is the machine (not optional here); Faults
// and Observe apply as on a Machine. Completed is false when a faulty
// unhardened run froze before the measurement ended.
func pingPong(mode mailbox.Mode, peer, rounds int, noise bool, opts core.Options) Record {
	const a = 0
	b := peer
	eng := sim.NewEngine()
	chip, err := scc.New(eng, *opts.Topology)
	if err != nil {
		panic(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Mode = mode
	core.WireFaults(chip, &kcfg, opts.Faults)
	members := opts.Members
	cl, err := kernel.NewCluster(chip, kcfg, members)
	if err != nil {
		panic(err)
	}
	obs := core.Observe(opts.Observe, chip, []*kernel.Cluster{cl}, nil)

	done := false
	var elapsed sim.Duration

	pongs := 0
	cl.Start(a, func(k *kernel.Kernel) {
		k.RegisterHandler(msgPong, func(k *kernel.Kernel, m mailbox.Msg) { pongs++ })
		k.RegisterHandler(msgDone, func(k *kernel.Kernel, m mailbox.Msg) {})
		k.RegisterHandler(msgNoise, func(k *kernel.Kernel, m mailbox.Msg) {})
		run := func(n int) {
			for i := 0; i < n; i++ {
				k.Send(b, msgPing, nil)
				want := pongs + 1
				k.WaitFor(func() bool { return pongs >= want })
			}
		}
		run(rounds / 4)
		start := k.Core().Now()
		run(rounds)
		elapsed = k.Core().Now() - start
		done = true
		// Wake everybody that waits on the done flag.
		for _, m := range members {
			if m != a {
				k.Send(m, msgDone, nil)
			}
		}
	})

	pings := 0
	cl.Start(b, func(k *kernel.Kernel) {
		k.RegisterHandler(msgPing, func(k *kernel.Kernel, m mailbox.Msg) {
			pings++
			k.Send(a, msgPong, nil)
		})
		k.RegisterHandler(msgDone, func(k *kernel.Kernel, m mailbox.Msg) {})
		k.RegisterHandler(msgNoise, func(k *kernel.Kernel, m mailbox.Msg) {})
		k.WaitFor(func() bool { return done })
	})

	// Filler cores: pure idle, or pairwise noise traffic.
	fillers := make([]int, 0, len(members))
	for _, m := range members {
		if m != a && m != b {
			fillers = append(fillers, m)
		}
	}
	for i, id := range fillers {
		// Fillers pair up (0,1), (2,3), ...; an odd one out idles.
		partner := -1
		if noise && i^1 < len(fillers) {
			partner = fillers[i^1]
		}
		cl.Start(id, func(k *kernel.Kernel) {
			noiseGot := 0
			k.RegisterHandler(msgNoise, func(k *kernel.Kernel, m mailbox.Msg) { noiseGot++ })
			k.RegisterHandler(msgDone, func(k *kernel.Kernel, m mailbox.Msg) {})
			if partner < 0 {
				k.WaitFor(func() bool { return done })
				return
			}
			if i%2 == 0 {
				// Initiator: strict ping-pong with the partner so mailbox
				// slots never back up when the measurement ends.
				for !done {
					k.Send(partner, msgNoise, nil)
					want := noiseGot + 1
					k.WaitFor(func() bool { return noiseGot >= want || done })
				}
			} else {
				for !done {
					want := noiseGot + 1
					k.WaitFor(func() bool { return noiseGot >= want || done })
					if done {
						break
					}
					k.Send(partner, msgNoise, nil)
				}
			}
		})
	}

	end := eng.Run()
	eng.Shutdown()
	obs.Finish()
	r := postMortem(cl, obs)
	r.US = elapsed.Microseconds() / float64(2*rounds)
	r.EndUS = end.Microseconds()
	r.Completed = done
	return r
}
