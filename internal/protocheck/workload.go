package protocheck

import (
	"fmt"
	"math/rand"

	"hscsim/internal/conform"
	"hscsim/internal/core"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// ObserverConfig builds the conformance machine (conform.EvalConfig)
// with the two CorePairs the containment observer requires (the
// abstract model's agent count), and the runtime oracle off — the
// observer claims the delivery hook.
func ObserverConfig(opts core.Options) system.Config {
	cfg := conform.EvalConfig(opts)
	cfg.NumCorePairs = 2
	return cfg
}

// ContendedWorkload drives CPU loads/stores/atomics, GPU vector and
// atomic traffic, and DMA block transfers over a handful of heavily
// shared cache lines, so quiescent snapshots visit many distinct
// composite states.
func ContendedWorkload(seed int64) system.Workload {
	const poolWords = 32 // 4 cache lines
	base := memdata.Addr(0x9000)
	at := func(i int) memdata.Addr { return base + memdata.Addr(i%poolWords)*8 }

	mkThread := func(tid int) func(*prog.CPUThread) {
		return func(c *prog.CPUThread) {
			r := rand.New(rand.NewSource(seed + int64(tid)*7919))
			for op := 0; op < 150; op++ {
				i := r.Intn(poolWords)
				switch r.Intn(5) {
				case 0:
					c.Load(at(i))
				case 1:
					c.Store(at(i), uint64(r.Intn(1000)))
				case 2:
					c.AtomicAdd(at(i), 1)
				case 3:
					c.Compute(uint64(r.Intn(30)))
				case 4:
					if r.Intn(4) == 0 {
						c.DMAOut(at(0), poolWords*8)
					} else {
						c.Load(at(i))
					}
				}
			}
		}
	}

	kernel := &prog.Kernel{
		Name: "contend", Workgroups: 2, WavesPerWG: 2, CodeAddr: 0xFB00_0000,
		Fn: func(w *prog.Wave) {
			r := rand.New(rand.NewSource(seed + int64(w.Global)*104729))
			var vals []uint64
			for op := 0; op < 40; op++ {
				i := r.Intn(poolWords)
				switch r.Intn(4) {
				case 0:
					vals = w.VecLoad(vals[:0], []memdata.Addr{at(i), at(i + 1)})
				case 1:
					w.VecStore([]memdata.Addr{at(i)}, []uint64{uint64(op)})
				case 2:
					w.AtomicSysAdd(at(i), 1)
				case 3:
					w.AtomicDevAdd(at(i), 1)
				}
			}
		},
	}

	threads := make([]func(*prog.CPUThread), 4)
	threads[0] = func(c *prog.CPUThread) {
		h := c.Launch(kernel)
		mkThread(0)(c)
		c.Wait(h)
		c.DMAIn(at(0), poolWords*8)
	}
	for k := 1; k < len(threads); k++ {
		threads[k] = mkThread(k)
	}
	return system.Workload{Name: fmt.Sprintf("contain-%d", seed), Threads: threads}
}
