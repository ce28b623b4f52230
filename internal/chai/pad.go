package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// Padding models CHAI pad: in-place padding of a packed matrix from
// width w to width wPad, processed back-to-front. Rows are dispensed by
// a shared (CPU+GPU) fetch-add counter, and in-place safety is enforced
// with per-row "source read" flags that workers on conflicting rows
// spin on — CHAI's fine-grained flag synchronization.
func Padding(p Params) system.Workload {
	rows := 192 * p.Scale
	const w, wPad = 30, 32
	const padVal = uint64(0xFADE)

	mat := dataBase
	flags := wa(mat, rows*wPad)
	counter := wa(flags, rows)

	setup := func(fm *memdata.Memory) {
		fillRandom(fm, mat, rows*w, 1_000_000, p.seed(0xDAD))
		fm.Write(counter, uint64(rows))
	}

	// Row r's padded destination overlaps the packed source of rows
	// r..lastConflict(r); those sources must be consumed first.
	lastConflict := func(r int) int {
		lc := ((r+1)*wPad - 1) / w
		if lc >= rows {
			lc = rows - 1
		}
		return lc
	}

	gpuWork := func(wv *prog.Wave) {
		src := make([]memdata.Addr, w)
		dst := make([]memdata.Addr, wPad)
		out := make([]uint64, wPad)
		var vals []uint64 // the wave's own: read after the ops below
		for {
			old := wv.AtomicSysAdd(counter, ^uint64(0)) // fetch-and-decrement
			if old == 0 || old > uint64(rows) {
				return
			}
			r := int(old) - 1
			// Read the packed source row.
			for k := 0; k < w; k++ {
				src[k] = wa(mat, r*w+k)
			}
			vals = wv.VecLoad(vals[:0], src)
			wv.Store(wa(flags, r), 1)
			// Wait until every conflicting source row has been read.
			for c := r + 1; c <= lastConflict(r); c++ {
				for wv.Load(wa(flags, c)) == 0 {
					wv.Compute(32)
				}
			}
			// Write the padded destination row.
			for k := 0; k < wPad; k++ {
				dst[k] = wa(mat, r*wPad+k)
				if k < w {
					out[k] = vals[k]
				} else {
					out[k] = padVal
				}
			}
			wv.VecStore(dst[:16], out[:16])
			wv.VecStore(dst[16:], out[16:])
		}
	}

	kernel := &prog.Kernel{
		Name: "pad_rows", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(4),
		Fn: gpuWork,
	}

	cpuWork := func(t *prog.CPUThread) {
		for {
			old := t.AtomicAdd(counter, ^uint64(0))
			if old == 0 || old > uint64(rows) {
				return
			}
			r := int(old) - 1
			vals := make([]uint64, w)
			for k := 0; k < w; k++ {
				vals[k] = t.Load(wa(mat, r*w+k))
			}
			t.Store(wa(flags, r), 1)
			for c := r + 1; c <= lastConflict(r); c++ {
				t.SpinUntil(wa(flags, c), func(v uint64) bool { return v != 0 })
			}
			for k := 0; k < wPad; k++ {
				if k < w {
					t.Store(wa(mat, r*wPad+k), vals[k])
				} else {
					t.Store(wa(mat, r*wPad+k), padVal)
				}
			}
		}
	}

	return system.Workload{
		Name:    "pad",
		Setup:   setup,
		Threads: collaborative(p.CPUThreads, kernel, cpuWork),
		Verify: func(fm *memdata.Memory) error {
			input := randomWords(1_000_000, p.seed(0xDAD)) // padded in place
			for r := 0; r < rows; r++ {
				for k := 0; k < wPad; k++ {
					want := padVal
					if k < w {
						want = input()
					}
					if got := fm.Read(wa(mat, r*wPad+k)); got != want {
						return fmt.Errorf("pad: [%d,%d] = %d, want %d", r, k, got, want)
					}
				}
			}
			return nil
		},
	}
}
