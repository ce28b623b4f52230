package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// BezierSurface models CHAI bs: evaluation of a Bezier surface from a
// small shared control-point matrix. The surface rows are statically
// partitioned between the CPU threads and the GPU (data parallelism,
// read-shared control points, disjoint outputs — the low-collaboration
// end of the suite).
func BezierSurface(p Params) system.Workload {
	res := 96 * p.Scale // surface resolution (res × res points)
	const nCtrl = 16    // 4×4 control points

	ctrl := dataBase
	out := wa(ctrl, nCtrl)

	var ctrlSum uint64
	setup := func(fm *memdata.Memory) {
		fillRandom(fm, ctrl, nCtrl, 1000, p.seed(0xbe21e5))
		ctrlSum = 0
		for c := range nCtrl {
			ctrlSum += fm.Read(wa(ctrl, c))
		}
	}

	point := func(i, j int) uint64 { return ctrlSum + uint64(i)*31 + uint64(j)*7 }

	cpuRows := res / 4 // CPU computes the first quarter of the rows
	gpuWaves := 16

	kernel := &prog.Kernel{
		Name: "bs_surface", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(0),
		Fn: func(w *prog.Wave) {
			ctrlAddrs := make([]memdata.Addr, nCtrl)
			for c := range ctrlAddrs {
				ctrlAddrs[c] = wa(ctrl, c)
			}
			var ctrlVals []uint64
			addrs := make([]memdata.Addr, 16)
			vals := make([]uint64, 16)
			for i := cpuRows + w.Global; i < res; i += gpuWaves {
				ctrlVals = w.VecLoad(ctrlVals[:0], ctrlAddrs)
				for j := 0; j < res; j += 16 {
					w.Compute(24)
					for k := 0; k < 16; k++ {
						addrs[k] = wa(out, i*res+j+k)
						vals[k] = point(i, j+k)
					}
					w.VecStore(addrs, vals)
				}
			}
		},
	}

	cpuWork := func(t *prog.CPUThread) {
		lo, hi := splitRange(cpuRows, p.CPUThreads, t.ID())
		for i := lo; i < hi; i++ {
			for c := 0; c < 16; c++ {
				t.Load(wa(ctrl, c))
			}
			for j := 0; j < res; j++ {
				t.Compute(2)
				t.Store(wa(out, i*res+j), point(i, j))
			}
		}
	}

	return system.Workload{
		Name:     "bs",
		Setup:    setup,
		Threads:  collaborative(p.CPUThreads, kernel, cpuWork),
		ReadOnly: [][2]memdata.Addr{{ctrl, wa(ctrl, nCtrl)}},
		Verify: func(fm *memdata.Memory) error {
			for i := 0; i < res; i++ {
				for j := 0; j < res; j++ {
					if got, want := fm.Read(wa(out, i*res+j)), point(i, j); got != want {
						return fmt.Errorf("bs: out[%d,%d] = %d, want %d", i, j, got, want)
					}
				}
			}
			return nil
		},
	}
}
