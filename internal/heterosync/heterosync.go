// Package heterosync models the HeteroSync fine-grained GPU
// synchronization microbenchmarks and a Lulesh-style proxy, which the
// paper also evaluated (§V) and found to benefit little from the
// coherence enhancements "due to their limited collaborative
// properties": their synchronization is GPU-internal and their CPU
// involvement is launch-and-wait, so there is little CPU↔GPU line
// sharing for the directory optimizations to accelerate.
//
// The suite exists to reproduce that *negative* result alongside the
// CHAI positives: mutex and ticket spin locks, a global sense-reversing
// barrier and a counting semaphore built on device-scope (GLC) atomics, and the Lulesh proxy.
package heterosync

import (
	"fmt"
	"slices"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// Params scales the microbenchmarks.
type Params struct {
	Scale int
}

// DefaultParams returns scale 1.
func DefaultParams() Params { return Params{Scale: 1} }

func (p Params) normalized() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	return p
}

// CPUThreads is the number of CPU threads every workload in the suite
// starts: one host thread that launches the kernels and waits on them.
const CPUThreads = 1

// names is the suite.
var names = [...]string{"hs_mutex", "hs_ticket", "hs_barrier", "hs_sema", "lulesh"}

// Names lists the suite.
func Names() []string { return slices.Clone(names[:]) }

// Known reports whether name is in the suite, without building a list.
func Known(name string) bool { return slices.Contains(names[:], name) }

// ByName builds a workload.
func ByName(name string, p Params) (system.Workload, error) {
	p = p.normalized()
	switch name {
	case "hs_mutex":
		return SpinMutex(p), nil
	case "hs_ticket":
		return TicketLock(p), nil
	case "hs_barrier":
		return GlobalBarrier(p), nil
	case "hs_sema":
		return Semaphore(p), nil
	case "lulesh":
		return Lulesh(p), nil
	}
	return system.Workload{}, fmt.Errorf("heterosync: unknown benchmark %q", name)
}

// All builds the whole suite.
func All(p Params) []system.Workload {
	var out []system.Workload
	for _, n := range Names() {
		w, err := ByName(n, p)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

const base = memdata.Addr(0x5000_0000)

func wa(b memdata.Addr, i int) memdata.Addr { return b + memdata.Addr(i)*8 }

// hostOnly wraps a kernel into the HeteroSync host pattern: the CPU
// launches and waits; all synchronization is GPU-internal.
func hostOnly(k *prog.Kernel) []func(*prog.CPUThread) {
	return []func(*prog.CPUThread){
		func(t *prog.CPUThread) {
			h := t.Launch(k)
			t.Wait(h)
		},
	}
}

// SpinMutex: every wavefront acquires a test-and-test-and-set spin
// mutex around a critical section incrementing a shared counter
// (HeteroSync's Mutex_Spin).
func SpinMutex(p Params) system.Workload {
	iters := 16 * p.Scale
	const waves = 16
	lock := wa(base, 0)
	counter := wa(base, 8)

	kernel := &prog.Kernel{
		Name: "hs_mutex", Workgroups: 8, WavesPerWG: 2, CodeAddr: 0xFE00_0000,
		Fn: func(w *prog.Wave) {
			for i := 0; i < iters; i++ {
				for {
					// Test (atomic load), then test-and-set.
					if w.AtomicDev(memdata.AtomicAdd, lock, 0, 0) != 0 {
						w.Compute(64)
						continue
					}
					if w.AtomicDev(memdata.AtomicCAS, lock, 1, 0) == 0 {
						break
					}
					w.Compute(64)
				}
				v := w.Load(counter)
				w.Compute(16)
				w.Store(counter, v+1)
				w.AtomicDev(memdata.AtomicExch, lock, 0, 0) // release
			}
		},
	}
	return system.Workload{
		Name:    "hs_mutex",
		Threads: hostOnly(kernel),
		Verify: func(fm *memdata.Memory) error {
			want := uint64(waves * iters)
			if got := fm.Read(counter); got != want {
				return fmt.Errorf("hs_mutex: counter = %d, want %d", got, want)
			}
			return nil
		},
	}
}

// TicketLock: FIFO lock via fetch-and-add tickets (HeteroSync's
// Mutex_Sleep analogue without the sleep queue).
func TicketLock(p Params) system.Workload {
	iters := 16 * p.Scale
	const waves = 16
	ticket := wa(base, 0)
	serving := wa(base, 8)
	counter := wa(base, 16)

	kernel := &prog.Kernel{
		Name: "hs_ticket", Workgroups: 8, WavesPerWG: 2, CodeAddr: 0xFE01_0000,
		Fn: func(w *prog.Wave) {
			for i := 0; i < iters; i++ {
				my := w.AtomicDevAdd(ticket, 1)
				for w.AtomicDev(memdata.AtomicAdd, serving, 0, 0) != my {
					w.Compute(96)
				}
				v := w.Load(counter)
				w.Compute(16)
				w.Store(counter, v+1)
				w.AtomicDevAdd(serving, 1)
			}
		},
	}
	return system.Workload{
		Name:    "hs_ticket",
		Threads: hostOnly(kernel),
		Verify: func(fm *memdata.Memory) error {
			want := uint64(waves * iters)
			if got := fm.Read(counter); got != want {
				return fmt.Errorf("hs_ticket: counter = %d, want %d", got, want)
			}
			if got := fm.Read(serving); got != want {
				return fmt.Errorf("hs_ticket: serving = %d, want %d", got, want)
			}
			return nil
		},
	}
}

// GlobalBarrier: a global sense-reversing barrier across all
// wavefronts, repeated for several rounds (HeteroSync's SyncPrims
// atomic tree barrier, flattened).
func GlobalBarrier(p Params) system.Workload {
	rounds := 8 * p.Scale
	const waves = 16
	arrived := wa(base, 0)
	sense := wa(base, 8)
	work := wa(base, 64) // per-wave, per-round output

	kernel := &prog.Kernel{
		Name: "hs_barrier", Workgroups: 8, WavesPerWG: 2, CodeAddr: 0xFE02_0000,
		Fn: func(w *prog.Wave) {
			for r := 0; r < rounds; r++ {
				w.Compute(32)
				w.Store(wa(work, w.Global*rounds+r), uint64(w.Global*1000+r))
				if int(w.AtomicDevAdd(arrived, 1)) == waves-1+r*waves {
					// Last arrival releases the round.
					w.AtomicDevAdd(sense, 1)
				} else {
					for int(w.AtomicDev(memdata.AtomicAdd, sense, 0, 0)) <= r {
						w.Compute(96)
					}
				}
			}
		},
	}
	return system.Workload{
		Name:    "hs_barrier",
		Threads: hostOnly(kernel),
		Verify: func(fm *memdata.Memory) error {
			if got := fm.Read(sense); got != uint64(rounds) {
				return fmt.Errorf("hs_barrier: completed %d rounds, want %d", got, rounds)
			}
			for g := 0; g < waves; g++ {
				for r := 0; r < rounds; r++ {
					if got := fm.Read(wa(work, g*rounds+r)); got != uint64(g*1000+r) {
						return fmt.Errorf("hs_barrier: work[%d,%d] = %d", g, r, got)
					}
				}
			}
			return nil
		},
	}
}

// Semaphore: producer wavefronts post a counting semaphore; consumer
// wavefronts decrement it with CAS loops and consume items from a
// shared buffer (HeteroSync's Semaphore).
func Semaphore(p Params) system.Workload {
	perProducer := 16 * p.Scale
	const producers, consumers = 8, 8
	sem := wa(base, 0)
	produced := wa(base, 8)
	consumed := wa(base, 16)
	items := wa(base, 64)

	total := producers * perProducer
	kernel := &prog.Kernel{
		Name: "hs_sema", Workgroups: 8, WavesPerWG: 2, CodeAddr: 0xFE03_0000,
		Fn: func(w *prog.Wave) {
			if w.Global < producers {
				for i := 0; i < perProducer; i++ {
					slot := w.AtomicDevAdd(produced, 1)
					w.Store(wa(items, int(slot)), slot*3+1)
					w.Compute(16)
					w.AtomicDevAdd(sem, 1) // post
				}
				return
			}
			// Consumer: each takes total/consumers items.
			for i := 0; i < total/consumers; i++ {
				for { // wait
					v := w.AtomicDev(memdata.AtomicAdd, sem, 0, 0)
					if v == 0 {
						w.Compute(96)
						continue
					}
					if w.AtomicDev(memdata.AtomicCAS, sem, v-1, v) == v {
						break
					}
				}
				slot := w.AtomicDevAdd(consumed, 1)
				got := w.Load(wa(items, int(slot)))
				_ = got
				w.Compute(24)
			}
		},
	}
	return system.Workload{
		Name:    "hs_sema",
		Threads: hostOnly(kernel),
		Verify: func(fm *memdata.Memory) error {
			if got := fm.Read(produced); got != uint64(total) {
				return fmt.Errorf("hs_sema: produced %d, want %d", got, total)
			}
			if got := fm.Read(consumed); got != uint64(total) {
				return fmt.Errorf("hs_sema: consumed %d, want %d", got, total)
			}
			if got := fm.Read(sem); got != 0 {
				return fmt.Errorf("hs_sema: semaphore = %d, want 0", got)
			}
			return nil
		},
	}
}

// Lulesh is a proxy for the Lulesh hydrodynamics kernel: Jacobi-style
// iterations in which the GPU computes every element from its stencil
// neighbours and the CPU performs the inter-iteration reduction (the
// time-constraint computation) — bulk data parallelism with one
// CPU↔GPU handoff per iteration.
func Lulesh(p Params) system.Workload {
	n := 2048 * p.Scale
	const itersTotal = 4
	gridA := base
	gridB := wa(base, n)
	redOut := wa(gridB, n)

	var ref []uint64
	setup := func(fm *memdata.Memory) {
		ref = make([]uint64, n)
		for i := range ref {
			ref[i] = uint64(i%97 + 1)
			fm.Write(wa(gridA, i), ref[i])
		}
	}
	step := func(src []uint64, i int) uint64 {
		l, r := (i+n-1)%n, (i+1)%n
		return (src[l] + src[i]*2 + src[r]) / 4
	}

	gpuWaves := 16
	mkKernel := func(it int, src, dst memdata.Addr) *prog.Kernel {
		return &prog.Kernel{
			Name: fmt.Sprintf("lulesh%d", it), Workgroups: 8, WavesPerWG: 2,
			CodeAddr: 0xFE04_0000,
			Fn: func(w *prog.Wave) {
				load := make([]memdata.Addr, 18)
				dsts := make([]memdata.Addr, 16)
				vals := make([]uint64, 16)
				var win []uint64
				for basei := w.Global * 16; basei < n; basei += gpuWaves * 16 {
					// One coalesced load of the 18-word stencil window
					// (basei-1 .. basei+16, wrapped).
					for k := -1; k <= 16; k++ {
						load[k+1] = wa(src, (basei+k+n)%n)
					}
					win = w.VecLoad(win[:0], load)
					w.Compute(32)
					for k := 0; k < 16; k++ {
						dsts[k] = wa(dst, basei+k)
						vals[k] = (win[k] + win[k+1]*2 + win[k+2]) / 4
					}
					w.VecStore(dsts, vals)
				}
			},
		}
	}

	threads := []func(*prog.CPUThread){
		func(t *prog.CPUThread) {
			src, dst := gridA, gridB
			for it := 0; it < itersTotal; it++ {
				h := t.Launch(mkKernel(it, src, dst))
				t.Wait(h)
				// CPU reduction over a sample of the new grid.
				var sum uint64
				for i := 0; i < n; i += 64 {
					sum += t.Load(wa(dst, i))
				}
				t.Store(wa(redOut, it), sum)
				src, dst = dst, src
			}
		},
	}

	return system.Workload{
		Name:    "lulesh",
		Setup:   setup,
		Threads: threads,
		Verify: func(fm *memdata.Memory) error {
			// Replay the Jacobi recurrence sequentially.
			cur := append([]uint64(nil), ref...)
			for it := 0; it < itersTotal; it++ {
				next := make([]uint64, n)
				for i := 0; i < n; i++ {
					next[i] = step(cur, i)
				}
				var sum uint64
				for i := 0; i < n; i += 64 {
					sum += next[i]
				}
				if got := fm.Read(wa(redOut, it)); got != sum {
					return fmt.Errorf("lulesh: reduction %d = %d, want %d", it, got, sum)
				}
				cur = next
			}
			return nil
		},
	}
}
