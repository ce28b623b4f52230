package system_test

import (
	"strings"
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

func smallConfig(opts core.Options) system.Config {
	cfg := system.Default()
	cfg.Protocol = opts
	cfg.CorePair.L2SizeBytes = 16 << 10
	cfg.CorePair.L1DSizeBytes = 2 << 10
	cfg.CorePair.L1ISizeBytes = 2 << 10
	cfg.GPU.TCCSizeBytes = 16 << 10
	cfg.GPU.TCPSizeBytes = 2 << 10
	cfg.Geometry.LLCSizeBytes = 64 << 10
	cfg.Geometry.DirEntries = 1 << 10
	return cfg
}

func TestTooManyThreadsRejected(t *testing.T) {
	s := system.New(system.Default())
	threads := make([]func(*prog.CPUThread), len(s.Cores)+1)
	for i := range threads {
		threads[i] = func(*prog.CPUThread) {}
	}
	_, err := s.Run(system.Workload{Name: "over", Threads: threads})
	if err == nil || !strings.Contains(err.Error(), "threads") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlockDetectedByTickLimit(t *testing.T) {
	cfg := system.Default()
	cfg.MaxTicks = 200_000
	s := system.New(cfg)
	_, err := s.Run(system.Workload{
		Name: "spin-forever",
		Threads: []func(*prog.CPUThread){
			func(c *prog.CPUThread) {
				c.SpinUntil(0x1000, func(v uint64) bool { return v != 0 }) // never set
			},
		},
	})
	if err == nil {
		t.Fatal("expected a tick-limit error")
	}
}

func TestVerificationFailurePropagates(t *testing.T) {
	s := system.New(system.Default())
	_, err := s.Run(system.Workload{
		Name:    "badverify",
		Threads: []func(*prog.CPUThread){func(c *prog.CPUThread) { c.Store(8, 1) }},
		Verify: func(fm *memdata.Memory) error {
			if fm.Read(8) != 2 {
				return errMismatch
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("err = %v", err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "value mismatch" }

// TestDeterminism: identical runs produce identical cycle counts and
// statistics — the property every experiment in the paper relies on.
func TestDeterminism(t *testing.T) {
	run := func() system.Results {
		w, err := chai.ByName("tq", chai.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		s := system.New(smallConfig(core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}))
		res, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for k, v := range a.Stats {
		if b.Stats[k] != v {
			t.Fatalf("stat %s differs: %d vs %d", k, v, b.Stats[k])
		}
	}
}

// TestSingleThreadSequentialConsistency: with one CPU thread, the final
// functional memory must equal a direct sequential execution under
// EVERY protocol variant — timing must never change single-thread
// semantics.
func TestSingleThreadSequentialConsistency(t *testing.T) {
	program := func(c *prog.CPUThread) {
		for i := 0; i < 200; i++ {
			a := memdata.Addr(0x1000 + (i%37)*8)
			v := c.Load(a)
			c.Store(a, v+uint64(i))
			if i%5 == 0 {
				c.AtomicAdd(0x2000, v+1)
			}
		}
	}
	// Reference: direct execution.
	ref := memdata.New()
	refTh := prog.NewCPUThread(ref)
	defer refTh.Abort()
	refTh.Start(0, program)
	for {
		op, ok := refTh.NextOp()
		if !ok {
			break
		}
		switch op.Kind {
		case prog.OpLoad:
			refTh.Complete(ref.Read(op.Addr))
		case prog.OpStore:
			ref.Write(op.Addr, op.Value)
			refTh.Complete(0)
		case prog.OpAtomic:
			refTh.Complete(ref.RMW(op.Addr, op.AOp, op.Value, op.Compare))
		default:
			refTh.Complete(0)
		}
	}

	for _, opts := range allVariants() {
		opts := opts
		t.Run(opts.Named(), func(t *testing.T) {
			s := system.New(smallConfig(opts))
			_, err := s.Run(system.Workload{
				Name:    "seq",
				Threads: []func(*prog.CPUThread){program},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 37; i++ {
				a := memdata.Addr(0x1000 + i*8)
				if got, want := s.FuncMem.Read(a), ref.Read(a); got != want {
					t.Fatalf("addr %#x = %d, want %d", uint64(a), got, want)
				}
			}
			if got, want := s.FuncMem.Read(0x2000), ref.Read(0x2000); got != want {
				t.Fatalf("atomic cell = %d, want %d", got, want)
			}
		})
	}
}

func allVariants() []core.Options {
	return []core.Options{
		{},
		{EarlyDirtyResponse: true},
		{NoWBCleanVicToMem: true},
		{NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
		{LLCWriteBack: true},
		{LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, LimitedPointers: 2},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, DirRepl: core.DirReplFewestSharers},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
	}
}

// TestStoreBufferSystemWide: workloads remain correct with the
// store-buffer (miss-level-parallelism) core configuration.
func TestStoreBufferSystemWide(t *testing.T) {
	for _, bench := range []string{"tq", "pad", "trns"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			cfg := smallConfig(core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true})
			cfg.CPU.StoreBufferSize = 8
			s := system.New(cfg)
			w, err := chai.ByName(bench, chai.Params{Scale: 1, CPUThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}
