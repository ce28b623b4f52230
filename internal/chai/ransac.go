package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// ransacModel derives a "model" from two sample points; ransacInlier is
// the (simplified) consensus predicate evaluated over the data set.
func ransacModel(a, b uint64) (m1, m2 uint64) { return a ^ (b << 1), a + b }

func ransacInlier(v, m1, m2 uint64) bool { return (v+m1+m2)%7 == 0 }

// ransacScore packs a score and iteration into one word so that a
// single atomic CAS maintains the running best; scores are unique by
// construction (score*64+iter), making the winner deterministic.
func ransacScore(inliers uint64, iter int) uint64 { return inliers*64 + uint64(iter) }

// ransacBest returns the best packed score over the iterations whose
// sample pairs are samples, evaluated over the n data words at data,
// which a run leaves intact: they are read-only.
func ransacBest(fm *memdata.Memory, data memdata.Addr, n int, samples [][2]int) uint64 {
	var best uint64
	for it, smp := range samples {
		m1, m2 := ransacModel(fm.Read(wa(data, smp[0])), fm.Read(wa(data, smp[1])))
		var c uint64
		for i := range n {
			if ransacInlier(fm.Read(wa(data, i)), m1, m2) {
				c++
			}
		}
		if s := ransacScore(c, it); s > best {
			best = s
		}
	}
	return best
}

// RansacData models CHAI rscd: data-parallel RANSAC. The host computes
// a model from two sampled points each iteration and the GPU evaluates
// the whole data set in parallel, accumulating the consensus count with
// system-scope atomics. Collaboration is coarse (launch/wait per
// iteration), which is why the paper sees limited benefit here.
func RansacData(p Params) system.Workload {
	n := 4096 * p.Scale
	const iters = 24

	data := dataBase
	model := wa(data, n)   // 2 words
	counts := wa(model, 2) // per-iteration inlier counts
	bestOut := wa(counts, iters)

	setup := func(fm *memdata.Memory) { fillRandom(fm, data, n, 1_000_000, p.seed(0x25CD)) }
	rng := newRNG(p.seed(0xD00D))
	samples := make([][2]int, iters)
	for i := range samples {
		samples[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}

	gpuWaves := 16
	mkKernel := func(iter int) *prog.Kernel {
		return &prog.Kernel{
			Name: fmt.Sprintf("rscd_eval%d", iter), Workgroups: 8, WavesPerWG: 2,
			CodeAddr: kernelCode(8),
			Fn: func(w *prog.Wave) {
				addrs := make([]memdata.Addr, 16)
				vals := make([]uint64, 0, 16)
				addrs[0], addrs[1] = model, model+8
				vals = w.VecLoad(vals, addrs[:2])
				m1, m2 := vals[0], vals[1]
				var local uint64
				for base := w.Global * 16; base < n; base += gpuWaves * 16 {
					for k := range addrs {
						addrs[k] = wa(data, base+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					for _, v := range vals {
						if ransacInlier(v, m1, m2) {
							local++
						}
					}
					w.Compute(8)
				}
				if local > 0 {
					w.AtomicSysAdd(wa(counts, iter), local)
				}
			},
		}
	}

	threads := []func(*prog.CPUThread){
		func(t *prog.CPUThread) {
			var best uint64
			for it := 0; it < iters; it++ {
				a := t.Load(wa(data, samples[it][0]))
				b := t.Load(wa(data, samples[it][1]))
				t.Compute(50)
				m1, m2 := ransacModel(a, b)
				t.Store(model, m1)
				t.Store(model+8, m2)
				h := t.Launch(mkKernel(it))
				t.Wait(h)
				c := t.Load(wa(counts, it))
				if s := ransacScore(c, it); s > best {
					best = s
				}
			}
			t.Store(bestOut, best)
		},
	}

	return system.Workload{
		Name:     "rscd",
		Setup:    setup,
		Threads:  threads,
		ReadOnly: [][2]memdata.Addr{{data, wa(data, n)}},
		Verify: func(fm *memdata.Memory) error {
			want := ransacBest(fm, data, n, samples)
			if got := fm.Read(bestOut); got != want {
				return fmt.Errorf("rscd: best = %d, want %d", got, want)
			}
			return nil
		},
	}
}

// RansacTask models CHAI rsct: task-parallel RANSAC. CPU threads and
// GPU wavefronts independently claim whole iterations from a shared
// fetch-add counter, evaluate them end-to-end, and race to update a
// shared packed best word with compare-and-swap — concurrent
// heterogeneous execution with system-scope synchronization.
func RansacTask(p Params) system.Workload {
	n := 2048 * p.Scale
	const iters = 32

	data := dataBase
	iterCtr := wa(data, n)
	best := wa(iterCtr, 8)

	setup := func(fm *memdata.Memory) { fillRandom(fm, data, n, 1_000_000, p.seed(0x25C7)) }
	rng := newRNG(p.seed(0xBEEF))
	samples := make([][2]int, iters)
	for i := range samples {
		samples[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}

	kernel := &prog.Kernel{
		Name: "rsct_iters", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(9),
		Fn: func(w *prog.Wave) {
			addrs := make([]memdata.Addr, 16)
			vals := make([]uint64, 0, 16)
			for {
				it := int(w.AtomicSysAdd(iterCtr, 1))
				if it >= iters {
					return
				}
				addrs[0], addrs[1] = wa(data, samples[it][0]), wa(data, samples[it][1])
				vals = w.VecLoad(vals[:0], addrs[:2])
				w.Compute(50)
				m1, m2 := ransacModel(vals[0], vals[1])
				var local uint64
				for base := 0; base < n; base += 16 {
					for k := range addrs {
						addrs[k] = wa(data, base+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					for _, v := range vals {
						if ransacInlier(v, m1, m2) {
							local++
						}
					}
				}
				s := ransacScore(local, it)
				for {
					old := w.AtomicSys(memdata.AtomicAdd, best, 0, 0) // atomic load
					if s <= old {
						break
					}
					if w.AtomicSys(memdata.AtomicCAS, best, s, old) == old {
						break
					}
				}
			}
		},
	}

	cpuWork := func(t *prog.CPUThread) {
		for {
			it := int(t.AtomicAdd(iterCtr, 1))
			if it >= iters {
				return
			}
			a := t.Load(wa(data, samples[it][0]))
			b := t.Load(wa(data, samples[it][1]))
			t.Compute(50)
			m1, m2 := ransacModel(a, b)
			var local uint64
			for i := 0; i < n; i++ {
				if ransacInlier(t.Load(wa(data, i)), m1, m2) {
					local++
				}
			}
			s := ransacScore(local, it)
			for {
				old := t.Load(best)
				if s <= old {
					break
				}
				if t.AtomicCAS(best, old, s) == old {
					break
				}
			}
		}
	}

	return system.Workload{
		Name:     "rsct",
		Setup:    setup,
		Threads:  collaborative(p.CPUThreads, kernel, cpuWork),
		ReadOnly: [][2]memdata.Addr{{data, wa(data, n)}},
		Verify: func(fm *memdata.Memory) error {
			want := ransacBest(fm, data, n, samples)
			if got := fm.Read(best); got != want {
				return fmt.Errorf("rsct: best = %d, want %d", got, want)
			}
			return nil
		},
	}
}
