package noc

import (
	"testing"

	"hscsim/internal/msg"
	"hscsim/internal/sim"
)

func newIC(t *testing.T, latency sim.Tick) (*sim.Engine, *Interconnect) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, Config{Latency: latency})
}

func TestDeliveryLatencyAndOrder(t *testing.T) {
	e, ic := newIC(t, 4)
	var got []sim.Tick
	var payloads []msg.Type
	ic.Register(1, HandlerFunc(func(m msg.Message) {
		got = append(got, e.Now())
		payloads = append(payloads, m.Type)
	}))
	e.Schedule(10, func() {
		ic.Send(msg.Message{Type: msg.RdBlk, Dst: 1})
		ic.Send(msg.Message{Type: msg.RdBlkM, Dst: 1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 14 || got[1] != 14 {
		t.Fatalf("delivery ticks = %v, want [14 14]", got)
	}
	// Same-tick sends are delivered in send order.
	if payloads[0] != msg.RdBlk || payloads[1] != msg.RdBlkM {
		t.Fatalf("delivery order = %v", payloads)
	}
}

func TestTrafficAccounting(t *testing.T) {
	e, ic := newIC(t, 1)
	ic.Register(1, HandlerFunc(func(msg.Message) {}))
	e.Schedule(0, func() {
		ic.Send(msg.Message{Type: msg.PrbInv, Dst: 1})
		ic.Send(msg.Message{Type: msg.PrbDowngrade, Dst: 1})
		ic.Send(msg.Message{Type: msg.PrbAck, Dst: 1, HasData: true})
		ic.Send(msg.Message{Type: msg.Resp, Dst: 1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ic.Stats.Messages; got != 4 {
		t.Fatalf("messages = %d", got)
	}
	if got := ic.Stats.Probes; got != 2 {
		t.Fatalf("probes = %d", got)
	}
	if got := ic.Stats.ProbeAcks; got != 1 {
		t.Fatalf("probe_acks = %d", got)
	}
	if got := ic.Stats.DataMessages; got != 2 {
		t.Fatalf("data_messages = %d", got)
	}
	wantBytes := uint64(msg.ControlBytes*2 + msg.DataBytes*2)
	if got := ic.Stats.Bytes; got != wantBytes {
		t.Fatalf("bytes = %d, want %d", got, wantBytes)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	_, ic := newIC(t, 1)
	ic.Register(1, HandlerFunc(func(msg.Message) {}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	ic.Register(1, HandlerFunc(func(msg.Message) {}))
}

func TestSendToUnregisteredPanics(t *testing.T) {
	_, ic := newIC(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("send to unregistered node did not panic")
		}
	}()
	ic.Send(msg.Message{Type: msg.RdBlk, Dst: 9})
}

func TestDefaultConfig(t *testing.T) {
	if DefaultConfig().Latency == 0 {
		t.Fatal("default latency must be positive")
	}
}

func TestEgressPortSerialization(t *testing.T) {
	e := sim.NewEngine()
	ic := New(e, Config{Latency: 4, WidthBytes: 8})
	var arrivals []sim.Tick
	ic.Register(1, HandlerFunc(func(m msg.Message) { arrivals = append(arrivals, e.Now()) }))
	e.Schedule(0, func() {
		// A 72-byte data message occupies the port for 9 ticks.
		ic.Send(msg.Message{Type: msg.Resp, Src: 0, Dst: 1})
		ic.Send(msg.Message{Type: msg.RdBlk, Src: 0, Dst: 1}) // stalls behind it
		ic.Send(msg.Message{Type: msg.RdBlk, Src: 2, Dst: 1}) // different port: no stall
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != 4 {
		t.Fatalf("first arrival %d, want 4", arrivals[0])
	}
	if arrivals[1] != 4 { // the other port's message is not stalled
		t.Fatalf("other-port arrival %d, want 4", arrivals[1])
	}
	if arrivals[2] != 13 { // departs at 9, +4 latency
		t.Fatalf("stalled arrival %d, want 13", arrivals[2])
	}
	if ic.Stats.PortStallCycles == 0 {
		t.Fatal("stall cycles not counted")
	}
}

// TestDeliveredCopiesSurviveSlotReuse: a receiver owns the copy it was
// handed. Messages kept past Receive must not change when later sends
// reuse the slots the earlier ones travelled in.
func TestDeliveredCopiesSurviveSlotReuse(t *testing.T) {
	e, ic := newIC(t, 2)
	var kept []msg.Message
	ic.Register(1, HandlerFunc(func(m msg.Message) { kept = append(kept, m) }))
	var sent []msg.Message
	for i := 0; i < 4; i++ {
		// Two rounds in flight at a time, so every slot is reused.
		for j := 0; j < 2; j++ {
			m := msg.Message{Type: msg.RdBlkM, Addr: 0x100, Dst: 1, TxnID: uint64(2*i + j), Operand: uint64(i*10 + j)}
			sent = append(sent, m)
			ic.Send(m)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(ic.slots) != 2 {
		t.Fatalf("slot table has %d slots, want 2 (reused every round)", len(ic.slots))
	}
	if len(kept) != len(sent) {
		t.Fatalf("delivered %d messages, want %d", len(kept), len(sent))
	}
	for i := range sent {
		if kept[i] != sent[i] {
			t.Errorf("kept message %d = %+v, want %+v", i, kept[i], sent[i])
		}
	}
}

// TestSendAfterDepartsLate: SendAfter touches neither the traffic
// counters nor the sender's egress port until its delay elapses, and
// the message then arrives at call + delay + latency, plus whatever
// stall the port imposes at departure.
func TestSendAfterDepartsLate(t *testing.T) {
	e := sim.NewEngine()
	ic := New(e, Config{Latency: 4, WidthBytes: 8})
	var arrivals []sim.Tick
	ic.Register(1, HandlerFunc(func(m msg.Message) { arrivals = append(arrivals, e.Now()) }))
	e.Schedule(10, func() {
		ic.SendAfter(5, msg.Message{Type: msg.RdBlk, Src: 0, Dst: 1})
	})
	e.Schedule(12, func() {
		if got := ic.Stats.Messages; got != 0 {
			t.Errorf("messages = %d before the delay elapsed, want 0", got)
		}
		if got := ic.Stats.Bytes; got != 0 {
			t.Errorf("bytes = %d before the delay elapsed, want 0", got)
		}
		// The delayed message has not claimed the port: this 72-byte
		// send departs at once and holds the port until tick 21.
		ic.Send(msg.Message{Type: msg.Resp, Src: 0, Dst: 1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The Resp arrives at 12+4. The RdBlk departs at 10+5=15, stalls
	// behind the Resp until 21, and arrives at 21+4.
	if len(arrivals) != 2 || arrivals[0] != 16 || arrivals[1] != 25 {
		t.Fatalf("arrivals = %v, want [16 25]", arrivals)
	}
	if got := ic.Stats.PortStallCycles; got != 6 {
		t.Fatalf("port_stall_cycles = %d, want 6", got)
	}
	if got := ic.Stats.Messages; got != 2 {
		t.Fatalf("messages = %d, want 2", got)
	}
}
