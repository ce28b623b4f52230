package system_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// randomWorkload generates a terminating multi-threaded CPU+GPU
// workload over a small, heavily contended address pool: random loads,
// stores, CPU atomics, GPU kernels with vector traffic and both atomic
// scopes. Every thread's op count is bounded, so the workload always
// terminates regardless of interleaving.
func randomWorkload(seed int64, threads int) system.Workload {
	const poolWords = 48 // 6 cache lines → lots of sharing
	base := memdata.Addr(0x9000)
	at := func(i int) memdata.Addr { return base + memdata.Addr(i%poolWords)*8 }

	mkThread := func(tid int) func(*prog.CPUThread) {
		return func(c *prog.CPUThread) {
			r := rand.New(rand.NewSource(seed + int64(tid)*7919))
			for op := 0; op < 120; op++ {
				i := r.Intn(poolWords)
				switch r.Intn(4) {
				case 0:
					c.Load(at(i))
				case 1:
					c.Store(at(i), uint64(r.Intn(1000)))
				case 2:
					c.AtomicAdd(at(i), 1)
				case 3:
					c.Compute(uint64(r.Intn(30)))
				}
			}
		}
	}

	kernel := &prog.Kernel{
		Name: "fuzz", Workgroups: 4, WavesPerWG: 2, CodeAddr: 0xFB00_0000,
		Fn: func(w *prog.Wave) {
			r := rand.New(rand.NewSource(seed + int64(w.Global)*104729))
			for op := 0; op < 40; op++ {
				i := r.Intn(poolWords)
				switch r.Intn(4) {
				case 0:
					addrs := make([]memdata.Addr, 4)
					for k := range addrs {
						addrs[k] = at(i + k)
					}
					w.VecLoad(nil, addrs)
				case 1:
					addrs := []memdata.Addr{at(i), at(i + 1)}
					w.VecStore(addrs, []uint64{uint64(op), uint64(op + 1)})
				case 2:
					w.AtomicSysAdd(at(i), 1)
				case 3:
					w.AtomicDevAdd(at(i), 1)
				}
			}
		},
	}

	ts := make([]func(*prog.CPUThread), threads)
	ts[0] = func(c *prog.CPUThread) {
		h := c.Launch(kernel)
		mkThread(0)(c)
		c.Wait(h)
	}
	for k := 1; k < threads; k++ {
		ts[k] = mkThread(k)
	}
	return system.Workload{Name: fmt.Sprintf("fuzz-%d", seed), Threads: ts}
}

// TestFuzzProtocolInvariants drives random contended traffic through
// every protocol variant: each run must terminate, leave the directory
// idle, and satisfy the coherence invariants at quiescence.
func TestFuzzProtocolInvariants(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, opts := range allVariants() {
		for _, seed := range seeds {
			opts, seed := opts, seed
			t.Run(fmt.Sprintf("%s/seed%d", opts.Named(), seed), func(t *testing.T) {
				cfg := smallConfig(opts)
				cfg.MaxTicks = 50_000_000
				cfg.Oracle = true // cross-check every delivery against the golden mirror
				s := system.New(cfg)
				if _, err := s.Run(randomWorkload(seed, 8)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFuzzDeterminism: the same random workload under the same variant
// yields bit-identical statistics.
func TestFuzzDeterminism(t *testing.T) {
	opts := core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}
	run := func() map[string]uint64 {
		s := system.New(smallConfig(opts))
		res, err := s.Run(randomWorkload(99, 6))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("stat %s differs: %d vs %d", k, v, b[k])
		}
	}
}

// TestFuzzAtomicConservation: concurrent fetch-adds of 1 from every
// CPU thread and GPU wave must sum exactly — atomics serialize at their
// visibility point under every variant.
func TestFuzzAtomicConservation(t *testing.T) {
	const perAgent = 50
	ctr := memdata.Addr(0xA000)
	kernel := &prog.Kernel{
		Name: "count", Workgroups: 4, WavesPerWG: 2, CodeAddr: 0xFC00_0000,
		Fn: func(w *prog.Wave) {
			for i := 0; i < perAgent; i++ {
				w.AtomicSysAdd(ctr, 1)
			}
		},
	}
	cpuT := func(c *prog.CPUThread) {
		for i := 0; i < perAgent; i++ {
			c.AtomicAdd(ctr, 1)
		}
	}
	for _, opts := range allVariants() {
		opts := opts
		t.Run(opts.Named(), func(t *testing.T) {
			s := system.New(smallConfig(opts))
			threads := []func(*prog.CPUThread){
				func(c *prog.CPUThread) {
					h := c.Launch(kernel)
					cpuT(c)
					c.Wait(h)
				},
				cpuT, cpuT, cpuT,
			}
			if _, err := s.Run(system.Workload{Name: "conserve", Threads: threads}); err != nil {
				t.Fatal(err)
			}
			want := uint64(perAgent * (4 + 8)) // 4 CPU threads + 8 waves
			if got := s.FuncMem.Read(ctr); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
		})
	}
}
