package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// SSSP models CHAI sssp (the second benchmark blocked by the gem5 O3
// bug, §V): single-source shortest paths by rounds of parallel edge
// relaxation. Each round the edge list is split between the CPU threads
// and a GPU kernel running concurrently; relaxations use atomic-min on
// the shared distance array from both devices, and the host detects
// convergence through a shared changed flag.
func SSSP(p Params) system.Workload {
	n := 512 * p.Scale
	const degree = 8
	const inf = uint64(1) << 60

	srcs := dataBase // edge list: (from, to, weight) triples
	edgeCount := n * degree
	dsts := wa(srcs, edgeCount)
	wts := wa(dsts, edgeCount)
	dist := wa(wts, edgeCount)
	changed := wa(dist, n)
	roundFlag := wa(changed, 1) // host → workers: (round<<1)|1
	doneCnt := wa(roundFlag, 1)
	stopFlag := wa(doneCnt, 1)

	type edge struct{ from, to, w int }
	var refEdges []edge
	setup := func(fm *memdata.Memory) {
		r := newRNG(p.seed(0x555))
		refEdges = refEdges[:0]
		for v := 0; v < n; v++ {
			for d := 0; d < degree; d++ {
				to := (v + 1) % n
				if d != 0 {
					to = r.Intn(n)
				}
				w := 1 + r.Intn(15)
				refEdges = append(refEdges, edge{v, to, w})
			}
		}
		for i, e := range refEdges {
			fm.Write(wa(srcs, i), uint64(e.from))
			fm.Write(wa(dsts, i), uint64(e.to))
			fm.Write(wa(wts, i), uint64(e.w))
		}
		for v := 1; v < n; v++ {
			fm.Write(wa(dist, v), inf)
		}
		fm.Write(wa(dist, 0), 0)
	}

	// The GPU relaxes the second half of the edges each round.
	cpuEdges := edgeCount / 2
	gpuWaves := 16
	mkKernel := func(round int) *prog.Kernel {
		return &prog.Kernel{
			Name: fmt.Sprintf("sssp_r%d", round), Workgroups: 8, WavesPerWG: 2,
			CodeAddr: kernelCode(11),
			Fn: func(w *prog.Wave) {
				addrs := make([]memdata.Addr, 3)
				var vals []uint64
				for i := cpuEdges + w.Global; i < edgeCount; i += gpuWaves {
					addrs[0], addrs[1], addrs[2] = wa(srcs, i), wa(dsts, i), wa(wts, i)
					vals = w.VecLoad(vals[:0], addrs)
					from, to, wt := int(vals[0]), int(vals[1]), vals[2]
					df := w.Load(wa(dist, from))
					if df == inf {
						continue
					}
					cand := df + wt
					if w.Load(wa(dist, to)) > cand {
						old := w.AtomicSys(memdata.AtomicMin, wa(dist, to), cand, 0)
						if old > cand {
							w.AtomicSys(memdata.AtomicOr, changed, 1, 0)
						}
					}
				}
			},
		}
	}

	workers := p.CPUThreads - 1
	if workers < 1 {
		workers = 1
	}
	relaxCPU := func(t *prog.CPUThread, id int) {
		lo, hi := splitRange(cpuEdges, workers, id)
		for i := lo; i < hi; i++ {
			from := int(t.Load(wa(srcs, i)))
			to := int(t.Load(wa(dsts, i)))
			wt := t.Load(wa(wts, i))
			df := t.Load(wa(dist, from))
			if df == inf {
				continue
			}
			cand := df + wt
			if t.Load(wa(dist, to)) > cand {
				old := t.Atomic(memdata.AtomicMin, wa(dist, to), cand, 0)
				if old > cand {
					t.Atomic(memdata.AtomicOr, changed, 1, 0)
				}
			}
		}
	}

	worker := func(t *prog.CPUThread) {
		seen := uint64(0)
		for {
			v := t.SpinUntil(roundFlag, func(v uint64) bool { return v != seen || t.Load(stopFlag) != 0 })
			if t.Load(stopFlag) != 0 {
				return
			}
			seen = v
			relaxCPU(t, t.ID()-1)
			t.AtomicAdd(doneCnt, 1)
		}
	}

	host := func(t *prog.CPUThread) {
		for round := 1; ; round++ {
			t.Store(changed, 0)
			t.Store(doneCnt, 0)
			h := t.Launch(mkKernel(round))
			t.Store(roundFlag, uint64(round<<1)|1) // release CPU workers
			t.Wait(h)
			t.SpinUntil(doneCnt, func(v uint64) bool { return v == uint64(workers) })
			if t.Load(changed) == 0 {
				break
			}
		}
		t.Store(stopFlag, 1)
	}

	threads := make([]func(*prog.CPUThread), workers+1)
	threads[0] = host
	for k := 1; k <= workers; k++ {
		threads[k] = worker
	}

	return system.Workload{
		Name:    "sssp",
		Setup:   setup,
		Threads: threads,
		// The number of relaxation rounds until convergence (and hence
		// roundFlag's final value) depends on how far updates propagate
		// within a round, which is scheduling-dependent. dist[] itself
		// converges to the unique shortest-path fixpoint.
		UnstableImage: true,
		Verify: func(fm *memdata.Memory) error {
			// Reference Bellman-Ford.
			want := make([]uint64, n)
			for v := 1; v < n; v++ {
				want[v] = inf
			}
			for changedRef := true; changedRef; {
				changedRef = false
				for _, e := range refEdges {
					if want[e.from] == inf {
						continue
					}
					if c := want[e.from] + uint64(e.w); c < want[e.to] {
						want[e.to] = c
						changedRef = true
					}
				}
			}
			for v := 0; v < n; v++ {
				if got := fm.Read(wa(dist, v)); got != want[v] {
					return fmt.Errorf("sssp: dist[%d] = %d, want %d", v, got, want[v])
				}
			}
			return nil
		},
	}
}
