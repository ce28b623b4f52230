package system_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// TestReadOnlyElisionEndToEnd: hsto's read-shared input under §IX
// read-only elision must verify, hold invariants, and slash baseline
// probes (the stateless directory otherwise broadcasts on every miss).
func TestReadOnlyElisionEndToEnd(t *testing.T) {
	run := func(opts core.Options) system.Results {
		cfg := smallConfig(opts)
		s := system.New(cfg)
		w, err := chai.ByName("hsto", chai.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(core.Options{})
	ro := run(core.Options{ReadOnlyElision: true})
	if ro.ProbesSent >= base.ProbesSent {
		t.Fatalf("read-only elision did not reduce probes: %d → %d", base.ProbesSent, ro.ProbesSent)
	}
	if ro.Stats["dir.readonly_elided"] == 0 {
		t.Fatal("no elided transactions counted")
	}

	// And on the tracked directory it must still verify with the
	// read-only lines intentionally untracked.
	tro := run(core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, ReadOnlyElision: true})
	if tro.Stats["dir.readonly_elided"] == 0 {
		t.Fatal("tracked mode elided nothing")
	}
}

// TestReadOnlyBenchmarksAllVerify: every benchmark that declares
// read-only ranges still verifies with the elision on.
func TestReadOnlyBenchmarksAllVerify(t *testing.T) {
	for _, name := range []string{"bs", "sc", "hsti", "hsto", "rscd", "rsct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(core.Options{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true, ReadOnlyElision: true})
			s := system.New(cfg)
			w, err := chai.ByName(name, chai.Params{Scale: 1, CPUThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(w.ReadOnly) == 0 {
				t.Fatalf("%s declares no read-only ranges", name)
			}
			if _, err := s.Run(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadOnlyWriteFailsRun: every run enforces a workload's read-only
// declaration, without ReadOnlyElision too. A CPU store, a CPU atomic
// or a GPU store into a declared range fails the run with a panic that
// names the address, as the directory's read-only violation does.
func TestReadOnlyWriteFailsRun(t *testing.T) {
	const ro, target = memdata.Addr(0x1_0000), memdata.Addr(0x1_0040)
	gpuStore := &prog.Kernel{Name: "ro-store", Workgroups: 1, WavesPerWG: 1, CodeAddr: 0xE000_0000,
		Fn: func(w *prog.Wave) { w.Store(target, 9) }}
	for _, c := range []struct {
		name string
		body func(*prog.CPUThread)
	}{
		{"cpu-store", func(c *prog.CPUThread) { c.Store(target, 9) }},
		{"cpu-atomic", func(c *prog.CPUThread) { c.AtomicAdd(target, 1) }},
		{"gpu-store", func(c *prog.CPUThread) { c.Wait(c.Launch(gpuStore)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := system.Workload{
				Name:     "ro-" + c.name,
				Setup:    func(fm *memdata.Memory) { fm.Write(target, 5) },
				Threads:  []func(*prog.CPUThread){c.body},
				ReadOnly: [][2]memdata.Addr{{ro, ro + 0x100}},
			}
			defer func() {
				r := recover()
				var werr *memdata.ReadOnlyWriteError
				if err, ok := r.(error); !ok || !errors.As(err, &werr) {
					t.Fatalf("the run panicked with %v, want a *memdata.ReadOnlyWriteError", r)
				}
				if msg := werr.Error(); !strings.Contains(msg, fmt.Sprintf("%#x", uint64(target))) {
					t.Fatalf("the panic %q does not name the address %#x", msg, uint64(target))
				}
			}()
			res, err := system.New(smallConfig(core.Options{})).Run(w)
			t.Fatalf("a write into a read-only range returned %v, %v", res.Cycles, err)
		})
	}
}

// TestEndlessComputeHitsMaxTicks: a thread that only computes never
// waits on a result, yet it still hands control back to its core, so
// the run ends in the MaxTicks error.
func TestEndlessComputeHitsMaxTicks(t *testing.T) {
	cfg := smallConfig(core.Options{})
	cfg.MaxTicks = 20_000
	_, err := system.New(cfg).Run(system.Workload{Name: "compute-forever",
		Threads: []func(*prog.CPUThread){func(c *prog.CPUThread) {
			for {
				c.Compute(1)
			}
		}}})
	if err == nil || !strings.Contains(err.Error(), "exceeded MaxTicks=20000") {
		t.Fatalf("err = %v, want the MaxTicks error", err)
	}
}

// TestRunAgainDropsReadOnlyRanges: a system run again without a Reset
// takes the new workload's read-only ranges, none here, in place of the
// last run's, in its functional memory and in its directory, so the new
// workload's Setup and threads may write there.
func TestRunAgainDropsReadOnlyRanges(t *testing.T) {
	const a = memdata.Addr(0x1_0000)
	s := system.New(smallConfig(core.Options{ReadOnlyElision: true}))
	if _, err := s.Run(system.Workload{Name: "ro",
		Setup:    func(fm *memdata.Memory) { fm.Write(a, 1) },
		Threads:  []func(*prog.CPUThread){func(c *prog.CPUThread) { c.Load(a) }},
		ReadOnly: [][2]memdata.Addr{{a, a + 64}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(system.Workload{Name: "rw",
		Setup:   func(fm *memdata.Memory) { fm.Write(a, 2) },
		Threads: []func(*prog.CPUThread){func(c *prog.CPUThread) { c.Store(a, 3) }},
		Verify: func(fm *memdata.Memory) error {
			if v := fm.Read(a); v != 3 {
				return fmt.Errorf("word = %d, want 3", v)
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
}
