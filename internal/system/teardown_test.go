package system_test

import (
	"runtime"
	"testing"
	"time"

	"hscsim/internal/core"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// TestAbortedRunStopsWorkloadCoroutines: a run cut short by MaxTicks
// while a kernel is in flight stops every workload coroutine, the host
// thread parked in Wait and every resident wave alike, so the goroutine
// count returns to its value before the run.
func TestAbortedRunStopsWorkloadCoroutines(t *testing.T) {
	spin := &prog.Kernel{Name: "spin", Workgroups: 8, WavesPerWG: 2, CodeAddr: 0xE000_0000,
		Fn: func(w *prog.Wave) {
			for {
				w.Compute(10)
			}
		}}
	hung := system.Workload{Name: "hung", Threads: []func(*prog.CPUThread){
		func(c *prog.CPUThread) { c.Wait(c.Launch(spin)) },
		func(c *prog.CPUThread) {
			for {
				c.Compute(100)
			}
		},
	}}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := smallConfig(core.Options{})
		cfg.MaxTicks = 50_000
		if _, err := system.New(cfg).Run(hung); err == nil {
			t.Fatal("a run that never ends returned no error")
		}
	}
	// A stopped coroutine has ended by the time Abort returns; the wait
	// only keeps a slow exit from passing for a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after 3 aborted runs, %d before: workload coroutines leaked", got, before)
	}
}
