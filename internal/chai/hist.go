package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

const histBins = 256

// HistogramInput models CHAI hsti: the input is partitioned between CPU
// threads and GPU wavefronts, all of which atomically update one shared
// histogram — heavy fine-grained contention on the bin lines through
// system-scope atomics (the stress case for invalidation traffic).
func HistogramInput(p Params) system.Workload {
	n := 8192 * p.Scale
	in := dataBase
	bins := wa(in, n)

	setup := func(fm *memdata.Memory) { fillRandom(fm, in, n, histBins, p.seed(0x1157)) }

	cpuN := n / 2
	gpuWaves := 16

	kernel := &prog.Kernel{
		Name: "hsti_count", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(1),
		Fn: func(w *prog.Wave) {
			addrs := make([]memdata.Addr, 16)
			var vals []uint64
			for base := cpuN + w.Global*16; base < n; base += gpuWaves * 16 {
				for k := range addrs {
					addrs[k] = wa(in, base+k)
				}
				vals = w.VecLoad(vals[:0], addrs)
				for _, v := range vals {
					w.AtomicSysAdd(wa(bins, int(v)), 1)
				}
			}
		},
	}

	cpuPart := func(t *prog.CPUThread) {
		lo, hi := splitRange(cpuN, p.CPUThreads, t.ID())
		for i := lo; i < hi; i++ {
			v := t.Load(wa(in, i))
			t.AtomicAdd(wa(bins, int(v)), 1)
		}
	}

	return system.Workload{
		Name:     "hsti",
		Setup:    setup,
		Threads:  collaborative(p.CPUThreads, kernel, cpuPart),
		ReadOnly: [][2]memdata.Addr{{in, wa(in, n)}},
		Verify:   func(fm *memdata.Memory) error { return verifyHistogram(fm, in, n, bins) },
	}
}

// HistogramOutput models CHAI hsto: the *output* bins are partitioned —
// every worker scans the whole input (pure read sharing, the S-state
// showcase) and privately counts only the bins it owns, so no atomics
// are needed on the bins.
func HistogramOutput(p Params) system.Workload {
	n := 8192 * p.Scale
	in := dataBase
	bins := wa(in, n)

	setup := func(fm *memdata.Memory) {
		fillRandom(fm, in, n, histBins, p.seed(0x1157)) // same input as hsti
	}

	// CPU threads own bins [0,128), the GPU owns [128,256).
	const cpuBins = histBins / 2
	gpuWaves := 16

	kernel := &prog.Kernel{
		Name: "hsto_count", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(2),
		Fn: func(w *prog.Wave) {
			lo := cpuBins + (histBins-cpuBins)*w.Global/gpuWaves
			hi := cpuBins + (histBins-cpuBins)*(w.Global+1)/gpuWaves
			local := make(map[int]uint64)
			addrs := make([]memdata.Addr, 16)
			var vals []uint64
			for base := 0; base < n; base += 16 {
				for k := range addrs {
					addrs[k] = wa(in, base+k)
				}
				vals = w.VecLoad(vals[:0], addrs)
				for _, v := range vals {
					if int(v) >= lo && int(v) < hi {
						local[int(v)]++
					}
				}
			}
			for b := lo; b < hi; b++ {
				w.Store(wa(bins, b), local[b])
			}
		},
	}

	cpuPart := func(t *prog.CPUThread) {
		lo, hi := splitRange(cpuBins, p.CPUThreads, t.ID())
		local := make(map[int]uint64)
		for i := 0; i < n; i++ {
			v := int(t.Load(wa(in, i)))
			if v >= lo && v < hi {
				local[v]++
			}
		}
		for b := lo; b < hi; b++ {
			t.Store(wa(bins, b), local[b])
		}
	}

	return system.Workload{
		Name:     "hsto",
		Setup:    setup,
		Threads:  collaborative(p.CPUThreads, kernel, cpuPart),
		ReadOnly: [][2]memdata.Addr{{in, wa(in, n)}},
		Verify:   func(fm *memdata.Memory) error { return verifyHistogram(fm, in, n, bins) },
	}
}

// verifyHistogram checks the bins at bins against a histogram of the n
// input words at in, which the run leaves intact: they are read-only.
func verifyHistogram(fm *memdata.Memory, in memdata.Addr, n int, bins memdata.Addr) error {
	var want [histBins]uint64
	for i := range n {
		want[fm.Read(wa(in, i))]++
	}
	for b := 0; b < histBins; b++ {
		if got := fm.Read(wa(bins, b)); got != want[b] {
			return fmt.Errorf("histogram: bin %d = %d, want %d", b, got, want[b])
		}
	}
	return nil
}
