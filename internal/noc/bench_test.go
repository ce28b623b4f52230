package noc

import (
	"testing"

	"hscsim/internal/msg"
	"hscsim/internal/sim"
)

// BenchmarkNoCDeliver measures one message's trip through the
// interconnect: Send into the slot table, the delivery event, and the
// handler call.
func BenchmarkNoCDeliver(b *testing.B) {
	e := sim.NewEngine()
	ic := New(e, DefaultConfig())
	ic.Register(1, HandlerFunc(func(msg.Message) {}))
	ic.Register(2, HandlerFunc(func(msg.Message) {}))
	deliver := func() {
		ic.Send(msg.Message{Type: msg.RdBlk, Addr: 0x40, Src: 2, Dst: 1})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the slot table and every calendar bucket of the engine.
	for i := 0; i < 1024; i++ {
		deliver()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
}
