package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// StreamCompaction models CHAI sc: compacting the even elements of an
// input stream into a dense output. Work tiles are dispensed through a
// shared fetch-add counter and output slots are reserved with a second
// shared fetch-add, both touched by CPU threads and GPU wavefronts
// (system-scope atomics) — CHAI's dynamic collaborative partitioning.
func StreamCompaction(p Params) system.Workload {
	n := 16384 * p.Scale
	const tile = 64

	in := dataBase
	out := wa(in, n)
	counter := wa(out, n)
	outCount := wa(counter, 8)

	setup := func(fm *memdata.Memory) { fillRandom(fm, in, n, 1000, p.seed(0x5c)) }
	keep := func(v uint64) bool { return v%2 == 0 }

	kernel := &prog.Kernel{
		Name: "sc_compact", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(3),
		Fn: func(w *prog.Wave) {
			addrs := make([]memdata.Addr, 16)
			dst := make([]memdata.Addr, 0, 16)
			var vals, keptVals []uint64
			for {
				t := w.AtomicSysAdd(counter, 1)
				if int(t)*tile >= n {
					return
				}
				base := int(t) * tile
				keptVals = keptVals[:0]
				for c := 0; c < tile; c += 16 {
					for k := range addrs {
						addrs[k] = wa(in, base+c+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					for _, v := range vals {
						if keep(v) {
							keptVals = append(keptVals, v)
						}
					}
				}
				if len(keptVals) == 0 {
					continue
				}
				off := int(w.AtomicSysAdd(outCount, uint64(len(keptVals))))
				for c := 0; c < len(keptVals); c += 16 {
					hi := c + 16
					if hi > len(keptVals) {
						hi = len(keptVals)
					}
					dst = dst[:0]
					for k := c; k < hi; k++ {
						dst = append(dst, wa(out, off+k))
					}
					w.VecStore(dst, keptVals[c:hi])
				}
			}
		},
	}

	cpuPart := func(t *prog.CPUThread) {
		for {
			tl := t.AtomicAdd(counter, 1)
			if int(tl)*tile >= n {
				return
			}
			base := int(tl) * tile
			var keptVals []uint64
			for k := 0; k < tile; k++ {
				v := t.Load(wa(in, base+k))
				if keep(v) {
					keptVals = append(keptVals, v)
				}
			}
			if len(keptVals) == 0 {
				continue
			}
			off := int(t.AtomicAdd(outCount, uint64(len(keptVals))))
			for k, v := range keptVals {
				t.Store(wa(out, off+k), v)
			}
		}
	}

	return system.Workload{
		Name:  "sc",
		Setup: setup,
		// Each kept element claims its output slot with a fetch-add on
		// the compaction cursor, so out[] ordering is
		// scheduling-dependent (Verify checks count, sum, and the
		// predicate instead).
		UnstableImage: true,
		Threads:       collaborative(p.CPUThreads, kernel, cpuPart),
		ReadOnly:      [][2]memdata.Addr{{in, wa(in, n)}},
		Verify: func(fm *memdata.Memory) error {
			var wantCount, wantSum uint64
			for i := range n { // the input is read-only, so intact
				if v := fm.Read(wa(in, i)); keep(v) {
					wantCount++
					wantSum += v
				}
			}
			gotCount := fm.Read(outCount)
			if gotCount != wantCount {
				return fmt.Errorf("sc: kept %d elements, want %d", gotCount, wantCount)
			}
			var gotSum uint64
			for i := 0; i < int(gotCount); i++ {
				v := fm.Read(wa(out, i))
				if !keep(v) {
					return fmt.Errorf("sc: out[%d] = %d fails the predicate", i, v)
				}
				gotSum += v
			}
			if gotSum != wantSum {
				return fmt.Errorf("sc: output sum %d, want %d", gotSum, wantSum)
			}
			return nil
		},
	}
}
