package memctrl

import (
	"testing"

	"hscsim/internal/sim"
)

func newCtrl(t *testing.T, cfg Config) (*sim.Engine, *Controller) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, cfg)
}

// onRead adapts a test callback to the dispatch form a read completes
// through.
type onRead func()

func (f onRead) OnEvent(uint8, uint64, any) { f() }

func TestReadLatency(t *testing.T) {
	e, c := newCtrl(t, Config{Latency: 100, CyclesPerAccess: 4})
	var done sim.Tick
	e.Schedule(10, func() {
		c.Read(1, onRead(func() { done = e.Now() }), 0, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 110 {
		t.Fatalf("read completed at %d, want 110", done)
	}
	if c.Stats.Reads != 1 || c.Stats.Writes != 0 {
		t.Fatalf("reads=%d writes=%d", c.Stats.Reads, c.Stats.Writes)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	e, c := newCtrl(t, Config{Latency: 100, CyclesPerAccess: 4})
	var finish []sim.Tick
	e.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			c.Read(1, onRead(func() { finish = append(finish, e.Now()) }), 0, nil)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Channel slots at 0, 4, 8 → completions at 100, 104, 108.
	want := []sim.Tick{100, 104, 108}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestPostedWrite(t *testing.T) {
	e, c := newCtrl(t, Config{Latency: 50, CyclesPerAccess: 2})
	var readDone sim.Tick
	e.Schedule(0, func() {
		c.Write(1)
		c.Write(2)
		c.Read(3, onRead(func() { readDone = e.Now() }), 0, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The posted writes occupy slots 0 and 2, so the read issues at 4.
	if readDone != 54 {
		t.Fatalf("read after two posted writes done at %d, want 54", readDone)
	}
	if c.Stats.Writes != 2 {
		t.Fatalf("writes = %d", c.Stats.Writes)
	}
}

func TestWritesConsumeReadBandwidth(t *testing.T) {
	e, c := newCtrl(t, Config{Latency: 10, CyclesPerAccess: 4})
	var readDone sim.Tick
	e.Schedule(0, func() {
		c.Write(1)
		c.Read(2, onRead(func() { readDone = e.Now() }), 0, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readDone != 14 {
		t.Fatalf("read after write done at %d, want 14", readDone)
	}
}

func TestZeroCyclesPerAccessDefaults(t *testing.T) {
	_, c := newCtrl(t, Config{Latency: 10})
	if c.cfg.CyclesPerAccess != 1 {
		t.Fatal("zero CyclesPerAccess should default to 1")
	}
}

func TestDefaultConfig(t *testing.T) {
	d := DefaultConfig()
	if d.Latency == 0 || d.CyclesPerAccess == 0 {
		t.Fatal("default config must be positive")
	}
}

func TestBankedOccupancy(t *testing.T) {
	e, c := newCtrl(t, Config{Latency: 10, CyclesPerAccess: 1, Banks: 4, BankCycles: 50})
	var sameBank, otherBank sim.Tick
	e.Schedule(0, func() {
		c.Read(0, onRead(func() {}), 0, nil)                      // bank 0 busy until 50
		c.Read(4, onRead(func() { sameBank = e.Now() }), 0, nil)  // bank 0 again: waits
		c.Read(1, onRead(func() { otherBank = e.Now() }), 0, nil) // bank 1: only channel slot
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sameBank != 60 { // starts at 50, +10 latency
		t.Fatalf("same-bank read done at %d, want 60", sameBank)
	}
	if otherBank != 12 { // channel slot 2, +10 latency
		t.Fatalf("other-bank read done at %d, want 12", otherBank)
	}
	if c.Stats.BankStallCycles == 0 {
		t.Fatal("bank stalls not counted")
	}
}

func TestBankCyclesDefault(t *testing.T) {
	_, c := newCtrl(t, Config{Latency: 10, Banks: 2})
	if c.cfg.BankCycles != 40 {
		t.Fatalf("BankCycles default = %d, want 40", c.cfg.BankCycles)
	}
}
