package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// CannyEdgeDetection models CHAI cedd: a frame pipeline in which the
// CPU runs the first two stages (Gaussian blur + Sobel) and the GPU the
// last two (non-max suppression + hysteresis), pipelined across frames
// through flags in unified memory. Frames are ingested by DMA, so the
// workload also exercises the directory's DMA state machine (Fig. 3).
func CannyEdgeDetection(p Params) system.Workload {
	const frames = 4
	px := 1600 * p.Scale // pixels per frame
	workers := p.CPUThreads - 1
	if workers < 1 {
		workers = 1
	}

	in := dataBase
	tmp := wa(in, frames*px)
	out := wa(tmp, frames*px)
	frameIn := wa(out, frames*px)  // main → workers: frame DMA'd in
	tmpDone := wa(frameIn, frames) // workers → main: stage-2 complete

	gauss := func(v uint64) uint64 { return v*2 + 1 }
	canny := func(v uint64, f int) uint64 { return v*3 + 7 + uint64(f) }

	setup := func(fm *memdata.Memory) { fillRandom(fm, in, frames*px, 256, p.seed(0xCEDD)) }

	gpuWaves := 16
	mkKernel := func(f int) *prog.Kernel {
		return &prog.Kernel{
			Name: fmt.Sprintf("cedd_frame%d", f), Workgroups: 8, WavesPerWG: 2,
			CodeAddr: kernelCode(7),
			Fn: func(w *prog.Wave) {
				addrs := make([]memdata.Addr, 16)
				dst := make([]memdata.Addr, 16)
				var vals []uint64
				for base := w.Global * 16; base < px; base += gpuWaves * 16 {
					for k := range addrs {
						addrs[k] = wa(tmp, f*px+base+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					w.Compute(16)
					for k, v := range vals {
						dst[k] = wa(out, f*px+base+k)
						vals[k] = canny(v, f)
					}
					w.VecStore(dst, vals)
				}
			},
		}
	}

	worker := func(t *prog.CPUThread) {
		id := t.ID() - 1
		for f := 0; f < frames; f++ {
			t.SpinUntil(wa(frameIn, f), func(v uint64) bool { return v != 0 })
			lo, hi := splitRange(px, workers, id)
			for i := lo; i < hi; i++ {
				v := t.Load(wa(in, f*px+i))
				t.Compute(3)
				t.Store(wa(tmp, f*px+i), gauss(v))
			}
			t.AtomicAdd(wa(tmpDone, f), 1)
		}
	}

	threads := make([]func(*prog.CPUThread), workers+1)
	threads[0] = func(t *prog.CPUThread) {
		handles := make([]*prog.KernelHandle, frames)
		for f := 0; f < frames; f++ {
			// Ingest the frame by DMA, then release the CPU stage.
			t.DMAIn(wa(in, f*px), px*8)
			t.Store(wa(frameIn, f), 1)
			// Wait for Gaussian+Sobel, then hand the frame to the GPU
			// and move on (pipelining: the GPU overlaps the next frame's
			// CPU stages).
			t.SpinUntil(wa(tmpDone, f), func(v uint64) bool { return v == uint64(workers) })
			handles[f] = t.Launch(mkKernel(f))
		}
		for _, h := range handles {
			t.Wait(h)
		}
	}
	for k := 1; k <= workers; k++ {
		threads[k] = worker
	}

	return system.Workload{
		Name:    "cedd",
		Setup:   setup,
		Threads: threads,
		Verify: func(fm *memdata.Memory) error {
			input := randomWords(256, p.seed(0xCEDD)) // in is a DMA target, not read-only
			for f := 0; f < frames; f++ {
				for i := 0; i < px; i++ {
					want := canny(gauss(input()), f)
					if got := fm.Read(wa(out, f*px+i)); got != want {
						return fmt.Errorf("cedd: frame %d px %d = %d, want %d", f, i, got, want)
					}
				}
			}
			return nil
		},
	}
}
