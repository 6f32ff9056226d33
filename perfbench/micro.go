//metalsvm:host-parallel
package main

import (
	"runtime"
	"time"

	"metalsvm/internal/core"
	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// microResult is one layer microbenchmark: host ns and heap allocations per
// call of one public operation, driven in a loop on a small machine.
type microResult struct {
	name        string
	ops         int
	nsPerOp     float64
	allocsPerOp float64
}

// timed runs fn (which performs ops operations) and returns its result.
// It may be called from inside a simulated core: the host clock and the
// allocation counter are read around the loop only.
func timed(name string, ops int, fn func()) microResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return microResult{name, ops, float64(el.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)}
}

// runMicros runs every microbenchmark once.
func runMicros() []microResult {
	var out []microResult
	out = append(out, microEngineEvent(), microProcSwitch())
	out = append(out, microAccesses()...)
	out = append(out, microMailRoundTrip())
	out = append(out, microSVMFault("svm_fault_strong", svm.Strong), microSVMFault("svm_fault_lrc", svm.LazyRelease))
	out = append(out, microBarrier())
	return out
}

// microEngineEvent measures Engine.At plus dispatch: 16 self-rescheduling
// event chains hold the queue at the depth of a 16-core machine.
func microEngineEvent() microResult {
	const ops, chains = 400000, 16
	e := sim.NewEngine()
	left := ops
	var step func()
	step = func() {
		if left > 0 {
			left--
			e.At(e.Now()+sim.Time(1+left%7), step)
		}
	}
	for i := 0; i < chains; i++ {
		e.At(sim.Time(i), step)
	}
	return timed("engine_event", ops, func() { e.Run() })
}

// microProcSwitch measures one Proc park/resume: Advance then Sync parks
// the process until the engine catches up and resumes it.
func microProcSwitch() microResult {
	const ops = 50000
	e := sim.NewEngine()
	e.NewProc("switch", 0, func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Advance(1)
			p.Sync()
		}
	})
	r := timed("proc_switch", ops, func() { e.Run() })
	e.Shutdown()
	return r
}

// microChip is a small single-chip machine for the microbenchmarks.
func microChip(w, h int) scc.Config { return scc.Grid(w, h, 1).Normalized() }

// runOn boots n cores of a small strong- or LRC-model machine and runs main
// on each.
func runOn(n int, model svm.Model, main func(*core.Env)) {
	topo := microChip(n, 1)
	if n > 4 {
		topo = microChip(4, (n+3)/4)
	}
	m, err := svmMachine(topo, model, core.FirstN(n))
	if err != nil {
		panic(err)
	}
	m.RunAll(main)
}

// microAccesses measures Core.Load64 and Store64 on one core over SVM
// memory: repeated hits in one L1 line, misses sweeping lines of a region
// larger than the caches, stores, and loads striding one page at a time
// over more pages than the 128-entry TLB holds.
func microAccesses() []microResult {
	const (
		ops    = 400000
		region = 1 << 20
		pages  = region / pgtable.PageSize
	)
	var out []microResult
	runOn(1, svm.Strong, func(env *core.Env) {
		c := env.Core()
		base := env.SVM.Alloc(region)
		for p := uint32(0); p < pages; p++ {
			c.Store64(base+p*pgtable.PageSize, 0) // first touch outside the timed loops
		}
		var sink uint64
		out = append(out, timed("load64_hit", ops, func() {
			for i := 0; i < ops; i++ {
				sink += c.Load64(base + uint32(i&3)*8)
			}
		}))
		out = append(out, timed("load64_miss", ops, func() {
			for i := 0; i < ops; i++ {
				sink += c.Load64(base + uint32(i*32)%region)
			}
		}))
		out = append(out, timed("store64", ops, func() {
			for i := 0; i < ops; i++ {
				c.Store64(base+uint32(i*8)%region, uint64(i))
			}
		}))
		out = append(out, timed("tlb_miss", ops, func() {
			for i := 0; i < ops; i++ {
				sink += c.Load64(base + uint32(i%pages)*pgtable.PageSize + uint32(i/pages%128)*32)
			}
		}))
		_ = sink
	})
	return out
}

// Mail types of the round-trip microbenchmark.
const (
	msgPing = kernel.MsgUser + 8
	msgPong = kernel.MsgUser + 9
)

// microMailRoundTrip measures one mailbox ping and its reply between two
// kernels.
func microMailRoundTrip() microResult {
	const ops = 4000
	var r microResult
	done := false
	runOn(2, svm.Strong, func(env *core.Env) {
		k := env.K
		if env.SVM.Rank() == 1 {
			k.RegisterHandler(msgPing, func(k *kernel.Kernel, m mailbox.Msg) { k.Send(m.From, msgPong, nil) })
			env.SVM.Barrier()
			k.WaitFor(func() bool { return done })
			return
		}
		pongs := 0
		k.RegisterHandler(msgPong, func(*kernel.Kernel, mailbox.Msg) { pongs++ })
		env.SVM.Barrier()
		peer := env.SVM.Workers()[1]
		r = timed("mail_roundtrip", ops, func() {
			for i := 0; i < ops; i++ {
				k.Send(peer, msgPing, nil)
				want := pongs + 1
				k.WaitFor(func() bool { return pongs >= want })
			}
		})
		done = true
		k.Send(peer, msgPing, nil) // wake the peer to see done
	})
	return r
}

// microSVMFault measures a page fault on a page another core touched
// first: an ownership transfer under the strong model, a mapping of the
// existing frame under lazy release.
func microSVMFault(name string, model svm.Model) microResult {
	const pages = 2048
	var r microResult
	runOn(2, model, func(env *core.Env) {
		c := env.Core()
		base := env.SVM.Alloc(pages * pgtable.PageSize)
		if env.SVM.Rank() == 0 {
			for p := uint32(0); p < pages; p++ {
				c.Store64(base+p*pgtable.PageSize, uint64(p))
			}
		}
		env.SVM.Barrier()
		if env.SVM.Rank() == 1 {
			r = timed(name, pages, func() {
				for p := uint32(0); p < pages; p++ {
					c.Store64(base+p*pgtable.PageSize+8, uint64(p))
				}
			})
		}
		env.SVM.Barrier()
	})
	return r
}

// microBarrier measures one SVM barrier across 16 cores.
func microBarrier() microResult {
	const ops = 300
	var r microResult
	runOn(16, svm.Strong, func(env *core.Env) {
		env.SVM.Barrier()
		if env.SVM.Rank() != 0 {
			for i := 0; i < ops; i++ {
				env.SVM.Barrier()
			}
			return
		}
		r = timed("barrier", ops, func() {
			for i := 0; i < ops; i++ {
				env.SVM.Barrier()
			}
		})
	})
	return r
}
