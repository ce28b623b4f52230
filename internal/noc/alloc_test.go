package noc

import (
	"testing"

	"hscsim/internal/msg"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// TestDeliverSteadyStateAllocs is the interconnect's alloc gate: once
// the slot table and the engine's event free list are warm, a send
// plus its delivery must not allocate at all, and sequential round
// trips must keep reusing the same slot instead of growing the table.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine()
	ic := New(e, DefaultConfig(), stats.NewRegistry().Scope("noc"))
	delivered := 0
	ic.Register(1, HandlerFunc(func(m msg.Message) { delivered++ }))
	ic.Register(2, HandlerFunc(func(m msg.Message) {}))

	send := func() {
		ic.Send(msg.Message{Type: msg.RdBlk, Addr: 0x40, Src: 2, Dst: 1})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the first trip allocates the slot and the Event.
	for i := 0; i < 8; i++ {
		send()
	}
	warm := len(ic.slots)
	if got := testing.AllocsPerRun(200, send); got > 0 {
		t.Fatalf("send+deliver allocates %.1f/op in steady state, want 0", got)
	}
	if len(ic.slots) != warm || warm != 1 {
		t.Fatalf("slot table grew from %d to %d over sequential round trips, want 1 slot throughout", warm, len(ic.slots))
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
