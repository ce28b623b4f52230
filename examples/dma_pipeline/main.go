// DMA pipeline: a custom workload exercising the directory's DMA state
// machine (Fig. 3 of the paper). The host DMA-ingests frames, a CPU
// worker pre-processes each frame, a GPU kernel post-processes it, and
// the result is DMA-egressed — the shape of a capture→process→emit
// media pipeline on an APU.
//
// In the baseline every DMA line request broadcasts probes; with the
// tracking directory, DMA reads/writes of untracked lines are
// probe-free, which is visible in the probe counts printed below.
package main

import (
	"fmt"
	"log"

	"hscsim"
)

const (
	frames   = 3
	px       = 2048 // words per frame
	gpuWaves = 16
)

func buildWorkload() hscsim.Workload {
	arena := hscsim.NewArena(0x3000_0000)
	in := arena.AllocWords(frames * px)
	mid := arena.AllocWords(frames * px)
	out := arena.AllocWords(frames * px)
	midReady := arena.AllocWords(frames)

	at := func(base hscsim.Addr, i int) hscsim.Addr { return base + hscsim.Addr(i*8) }

	mkKernel := func(f int) *hscsim.Kernel {
		return &hscsim.Kernel{
			Name: fmt.Sprintf("post%d", f), Workgroups: 8, WavesPerWG: 2,
			CodeAddr: 0xFA00_0000,
			Fn: func(w *hscsim.Wave) {
				// One address buffer and one value buffer per wave:
				// VecLoad appends into the buffer it is given.
				addrs := make([]hscsim.Addr, 16)
				dst := make([]hscsim.Addr, 16)
				var vals []uint64
				for base := w.Global * 16; base < px; base += gpuWaves * 16 {
					for k := range addrs {
						addrs[k] = at(mid, f*px+base+k)
					}
					vals = w.VecLoad(vals[:0], addrs)
					w.Compute(16)
					for k, v := range vals {
						dst[k] = at(out, f*px+base+k)
						vals[k] = v + 1000
					}
					w.VecStore(dst, vals)
				}
			},
		}
	}

	worker := func(t *hscsim.CPUThread) {
		for f := 0; f < frames; f++ {
			t.SpinUntil(at(midReady, f), func(v uint64) bool { return v != 0 })
			lo, hi := f*px, (f+1)*px
			for i := lo; i < hi; i++ {
				v := t.Load(at(in, i))
				t.Store(at(mid, i), v*3)
			}
			t.Store(at(midReady, f), 2)
		}
	}

	return hscsim.Workload{
		Name: "dma-pipeline",
		Setup: func(fm *hscsim.Memory) {
			for i := 0; i < frames*px; i++ {
				fm.Write(at(in, i), uint64(i%97))
			}
		},
		Threads: []func(*hscsim.CPUThread){
			func(t *hscsim.CPUThread) {
				for f := 0; f < frames; f++ {
					t.DMAIn(at(in, f*px), px*8) // capture
					t.Store(at(midReady, f), 1) // release the worker
					t.SpinUntil(at(midReady, f), func(v uint64) bool { return v == 2 })
					h := t.Launch(mkKernel(f))
					t.Wait(h)
					t.DMAOut(at(out, f*px), px*8) // emit
				}
			},
			worker,
		},
		Verify: func(fm *hscsim.Memory) error {
			for i := 0; i < frames*px; i++ {
				want := uint64(i%97)*3 + 1000
				if got := fm.Read(at(out, i)); got != want {
					return fmt.Errorf("out[%d] = %d, want %d", i, got, want)
				}
			}
			return nil
		},
	}
}

func main() {
	for _, opts := range []hscsim.ProtocolOptions{
		{},
		{Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	} {
		s := hscsim.NewSystem(hscsim.EvalConfig(opts))
		res, err := s.Run(buildWorkload())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s cycles=%-9d probes=%-7d mem=%-6d dma-reads=%d dma-writes=%d\n",
			opts.Named(), res.Cycles, res.ProbesSent, res.MemAccesses(),
			res.Stats["dma.reads"], res.Stats["dma.writes"])
	}
}
