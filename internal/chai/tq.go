package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// TaskQueue models CHAI tq: CPU producer threads fill a task queue in
// unified memory while GPU wavefronts concurrently dequeue and process
// tasks. Dequeueing uses system-scope fetch-add on the queue head;
// consumers spin on per-task ready flags (CHAI's "unpaired work-queue"
// synchronization) — the most fine-grained collaboration in the suite.
func TaskQueue(p Params) system.Workload {
	nTasks := 256 * p.Scale
	const recWords = 16

	records := dataBase
	ready := wa(records, nTasks*recWords)
	out := wa(ready, nTasks)
	prodIdx := wa(out, nTasks)
	head := wa(prodIdx, 8)
	doneCount := wa(head, 8)

	taskVal := func(s, k int) uint64 { return uint64(s)*1001 + uint64(k)*17 }
	process := func(s int) uint64 {
		var sum uint64
		for k := 0; k < recWords; k++ {
			sum += taskVal(s, k)
		}
		return sum
	}

	kernel := &prog.Kernel{
		Name: "tq_consume", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(5),
		Fn: func(w *prog.Wave) {
			addrs := make([]memdata.Addr, recWords)
			var vals []uint64
			for {
				t := w.AtomicSysAdd(head, 1)
				if int(t) >= nTasks {
					return
				}
				// Wait for the producer to publish the task.
				for w.Load(wa(ready, int(t))) == 0 {
					w.Compute(48)
				}
				for k := range addrs {
					addrs[k] = wa(records, int(t)*recWords+k)
				}
				vals = w.VecLoad(vals[:0], addrs)
				var sum uint64
				for _, v := range vals {
					sum += v
				}
				w.Compute(32)
				w.Store(wa(out, int(t)), sum)
				w.AtomicSysAdd(doneCount, 1)
			}
		},
	}

	produce := func(t *prog.CPUThread) {
		for {
			s := t.AtomicAdd(prodIdx, 1)
			if int(s) >= nTasks {
				return
			}
			for k := 0; k < recWords; k++ {
				t.Store(wa(records, int(s)*recWords+k), taskVal(int(s), k))
			}
			t.Compute(16)
			t.Store(wa(ready, int(s)), 1)
		}
	}

	return system.Workload{
		Name:    "tq",
		Setup:   nil,
		Threads: collaborative(p.CPUThreads, kernel, produce),
		Verify: func(fm *memdata.Memory) error {
			if got := fm.Read(doneCount); got != uint64(nTasks) {
				return fmt.Errorf("tq: processed %d tasks, want %d", got, nTasks)
			}
			for s := 0; s < nTasks; s++ {
				if got, want := fm.Read(wa(out, s)), process(s); got != want {
					return fmt.Errorf("tq: out[%d] = %d, want %d", s, got, want)
				}
			}
			return nil
		},
	}
}
