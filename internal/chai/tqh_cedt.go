package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// TaskQueueHistogram models CHAI tqh (third of the four §V-blocked
// benchmarks): CPU producers enqueue image blocks into the task queue
// while GPU consumers dequeue them and histogram their pixels into a
// shared bin array with system-scope atomics — tq's queue protocol
// composed with hsti's contended reduction.
func TaskQueueHistogram(p Params) system.Workload {
	nBlocks := 96 * p.Scale
	const blockPx = 64

	pixels := dataBase // produced block data
	ready := wa(pixels, nBlocks*blockPx)
	bins := wa(ready, nBlocks)
	prodIdx := wa(bins, histBins)
	head := wa(prodIdx, 1)

	pixel := func(b, i int) uint64 { return uint64((b*31 + i*7) % histBins) }

	kernel := &prog.Kernel{
		Name: "tqh_consume", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(12),
		Fn: func(w *prog.Wave) {
			addrs := make([]memdata.Addr, 16)
			var vals []uint64
			for {
				t := w.AtomicSysAdd(head, 1)
				if int(t) >= nBlocks {
					return
				}
				for w.Load(wa(ready, int(t))) == 0 {
					w.Compute(48)
				}
				for c := 0; c < blockPx; c += 16 {
					for k := range addrs {
						addrs[k] = wa(pixels, int(t)*blockPx+c+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					for _, v := range vals {
						w.AtomicSysAdd(wa(bins, int(v)), 1)
					}
				}
			}
		},
	}

	produce := func(t *prog.CPUThread) {
		for {
			s := t.AtomicAdd(prodIdx, 1)
			if int(s) >= nBlocks {
				return
			}
			for i := 0; i < blockPx; i++ {
				t.Store(wa(pixels, int(s)*blockPx+i), pixel(int(s), i))
			}
			t.Store(wa(ready, int(s)), 1)
		}
	}

	return system.Workload{
		Name:    "tqh",
		Threads: collaborative(p.CPUThreads, kernel, produce),
		Verify: func(fm *memdata.Memory) error {
			want := make([]uint64, histBins)
			for b := 0; b < nBlocks; b++ {
				for i := 0; i < blockPx; i++ {
					want[pixel(b, i)]++
				}
			}
			for b := 0; b < histBins; b++ {
				if got := fm.Read(wa(bins, b)); got != want[b] {
					return fmt.Errorf("tqh: bin %d = %d, want %d", b, got, want[b])
				}
			}
			return nil
		},
	}
}

// CannyTaskParallel models CHAI cedt (the fourth §V-blocked benchmark):
// the task-parallel formulation of Canny in which whole frame strips
// are claimed from one shared work pool and processed end-to-end
// (gauss∘sobel∘nonmax∘hysteresis fused) by whichever device grabs them
// — coarse-grained task parallelism, in contrast to cedd's pipelined
// stage split.
func CannyTaskParallel(p Params) system.Workload {
	const frames = 4
	px := 1600 * p.Scale
	const stripPx = 160
	strips := frames * px / stripPx

	in := dataBase
	out := wa(in, frames*px)
	pool := wa(out, frames*px)

	setup := func(fm *memdata.Memory) { fillRandom(fm, in, frames*px, 256, p.seed(0xCED7)) }
	fused := func(v uint64) uint64 { return (v*2+1)*3 + 7 } // canny∘gauss

	kernel := &prog.Kernel{
		Name: "cedt_strips", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(13),
		Fn: func(w *prog.Wave) {
			addrs := make([]memdata.Addr, 16)
			dst := make([]memdata.Addr, 16)
			var vals []uint64
			for {
				s := w.AtomicSysAdd(pool, 1)
				if int(s) >= strips {
					return
				}
				basePx := int(s) * stripPx
				for c := 0; c < stripPx; c += 16 {
					for k := range addrs {
						addrs[k] = wa(in, basePx+c+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					w.Compute(48)
					for k, v := range vals {
						dst[k] = wa(out, basePx+c+k)
						vals[k] = fused(v)
					}
					w.VecStore(dst, vals)
				}
			}
		},
	}

	cpuWork := func(t *prog.CPUThread) {
		for {
			s := t.AtomicAdd(pool, 1)
			if int(s) >= strips {
				return
			}
			basePx := int(s) * stripPx
			for i := 0; i < stripPx; i++ {
				v := t.Load(wa(in, basePx+i))
				t.Compute(4)
				t.Store(wa(out, basePx+i), fused(v))
			}
		}
	}

	return system.Workload{
		Name:     "cedt",
		Setup:    setup,
		Threads:  collaborative(p.CPUThreads, kernel, cpuWork),
		ReadOnly: [][2]memdata.Addr{{in, wa(in, frames*px)}},
		Verify: func(fm *memdata.Memory) error {
			for i := 0; i < frames*px; i++ {
				// The input is read-only, so intact.
				if got, want := fm.Read(wa(out, i)), fused(fm.Read(wa(in, i))); got != want {
					return fmt.Errorf("cedt: px %d = %d, want %d", i, got, want)
				}
			}
			return nil
		},
	}
}
