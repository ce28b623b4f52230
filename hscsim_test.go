package hscsim_test

import (
	"fmt"
	"testing"

	"hscsim"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := hscsim.EvalConfig(hscsim.ProtocolOptions{
		Tracking:     hscsim.TrackOwnerSharers,
		LLCWriteBack: true,
		UseL3OnWT:    true,
	})
	res, err := hscsim.RunBenchmark("tq", cfg, hscsim.Params{Scale: 1, CPUThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Name != "tq" || res.Config != "sharersTracking" {
		t.Fatalf("results = %+v", res)
	}
}

func TestBenchmarkListing(t *testing.T) {
	if len(hscsim.Benchmarks()) != 10 {
		t.Fatal("expected 10 bundled benchmarks")
	}
	if len(hscsim.CollaborativeBenchmarks()) != 5 {
		t.Fatal("expected 5 collaborative benchmarks")
	}
	if _, err := hscsim.NewBenchmark("hsto", hscsim.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := hscsim.RunBenchmark("missing", hscsim.DefaultConfig(), hscsim.DefaultParams()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCustomWorkloadThroughPublicAPI(t *testing.T) {
	arena := hscsim.NewArena(0x4000_0000)
	cell := arena.AllocWords(1)
	kernel := &hscsim.Kernel{
		Name: "inc", Workgroups: 2, WavesPerWG: 2, CodeAddr: 0xFD00_0000,
		Fn: func(w *hscsim.Wave) {
			w.AtomicSysAdd(cell, 1)
		},
	}
	s := hscsim.NewSystem(hscsim.EvalConfig(hscsim.ProtocolOptions{}))
	_, err := s.Run(hscsim.Workload{
		Name: "custom",
		Threads: []func(*hscsim.CPUThread){
			func(c *hscsim.CPUThread) {
				h := c.Launch(kernel)
				c.AtomicAdd(cell, 10)
				c.Wait(h)
			},
		},
		Verify: func(fm *hscsim.Memory) error {
			if got := fm.Read(cell); got != 14 {
				return fmt.Errorf("cell = %d, want 14", got)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigMatchesTableIII(t *testing.T) {
	cfg := hscsim.DefaultConfig()
	if cfg.NumCorePairs != 4 {
		t.Fatal("CorePair count deviates from Table III")
	}
	if n := len(hscsim.NewSystem(cfg).Cores); n != 8 {
		t.Fatalf("%d CPU cores, Table III has 8", n)
	}
	if cfg.GPUDisp.NumCUs != 8 {
		t.Fatal("CU count deviates from Table III")
	}
	if cfg.Geometry.LLCSizeBytes != 16<<20 || cfg.CorePair.L2SizeBytes != 2<<20 {
		t.Fatal("cache sizes deviate from Table II")
	}
}
