package system_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hscsim/internal/core"
	"hscsim/internal/memdata"
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
	expectGoroutines(t, before, "3 aborted runs")
}

// TestCompletedRunStopsWaveSlots: a run that completes, with kernels
// whose waves outnumber the GPU's resident wave slots, stops every
// slot, the ones its later waves reused and the ones left idle alike.
func TestCompletedRunStopsWaveSlots(t *testing.T) {
	var arr [80]memdata.Addr
	for i := range arr {
		arr[i] = memdata.Addr(0x10_0000 + 64*i)
	}
	wide := &prog.Kernel{Name: "wide", Workgroups: 40, WavesPerWG: 2, CodeAddr: 0xE000_0000,
		Fn: func(w *prog.Wave) {
			w.Store(arr[w.Global], w.Load(arr[w.Global])+1)
		}}
	w := system.Workload{Name: "wide", Threads: []func(*prog.CPUThread){
		func(c *prog.CPUThread) {
			c.Wait(c.Launch(wide))
			c.Wait(c.Launch(wide))
		},
	}, Verify: func(fm *memdata.Memory) error {
		for i, a := range arr {
			if v := fm.Read(a); v != 2 {
				return fmt.Errorf("word %d = %d, want 2", i, v)
			}
		}
		return nil
	}}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s := system.New(smallConfig(core.Options{}))
		if _, err := s.Run(w); err != nil {
			t.Fatal(err)
		}
		if done := s.GPU.Stats.WavesDone; done != 160 {
			t.Fatalf("%d waves done, want 160", done)
		}
	}
	expectGoroutines(t, before, "3 completed runs")
}

// expectGoroutines fails the test if more than before goroutines are
// left after runs. A stopped coroutine has ended by the time Abort
// returns; the wait only keeps a slow exit from passing for a leak.
func expectGoroutines(t *testing.T, before int, runs string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after %s, %d before: workload coroutines leaked", got, runs, before)
	}
}
