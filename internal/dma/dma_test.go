package dma

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// echoDir acknowledges every DMA request, tracking peak concurrency.
type echoDir struct {
	ic       *noc.Interconnect
	id       msg.NodeID
	inflight int
	peak     int
	reads    []cachearray.LineAddr
	writes   []cachearray.LineAddr
}

func (d *echoDir) Receive(m msg.Message) {
	d.inflight++
	if d.inflight > d.peak {
		d.peak = d.inflight
	}
	reply := msg.Message{Addr: m.Addr, Src: d.id, Dst: m.Src}
	switch m.Type {
	case msg.DMARd:
		d.reads = append(d.reads, m.Addr)
		reply.Type = msg.Resp
	case msg.DMAWr:
		d.writes = append(d.writes, m.Addr)
		reply.Type = msg.WBAck
	}
	// Answer with some latency so outstanding requests overlap.
	d.ic.Send(reply)
	d.inflight--
}

type dmaRig struct {
	t   *testing.T
	e   *sim.Engine
	eng *Engine
	dir *echoDir
}

func newDMARig(t *testing.T) *dmaRig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 1_000_000
	reg := stats.NewRegistry()
	ic := noc.New(e, noc.Config{Latency: 3}, reg.Scope("noc"))
	d := &echoDir{ic: ic, id: 9}
	ic.Register(9, d)
	eng := New(e, ic, 5, 9, reg.Scope("dma"))
	return &dmaRig{t: t, e: e, eng: eng, dir: d}
}

func (r *dmaRig) run() {
	r.t.Helper()
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
	if r.eng.Outstanding() != 0 {
		r.t.Fatal("outstanding DMA requests after drain")
	}
}

func TestReadWriteBlock(t *testing.T) {
	r := newDMARig(t)
	done := 0
	r.eng.ReadBlock(0x10, func() { done++ })
	r.eng.WriteBlock(0x20, func() { done++ })
	r.run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if len(r.dir.reads) != 1 || r.dir.reads[0] != 0x10 {
		t.Fatalf("reads = %v", r.dir.reads)
	}
	if len(r.dir.writes) != 1 || r.dir.writes[0] != 0x20 {
		t.Fatalf("writes = %v", r.dir.writes)
	}
}

func TestStreamCoversEveryLine(t *testing.T) {
	r := newDMARig(t)
	finished := false
	// 1000 bytes from byte 32: lines 0 through 16 (inclusive).
	r.eng.Stream(32, 1000, false, 4, func() { finished = true })
	r.run()
	if !finished {
		t.Fatal("stream never finished")
	}
	if len(r.dir.reads) != 17 {
		t.Fatalf("lines read = %d, want 17", len(r.dir.reads))
	}
	seen := map[cachearray.LineAddr]bool{}
	for _, a := range r.dir.reads {
		seen[a] = true
	}
	for l := cachearray.LineAddr(0); l <= 16; l++ {
		if !seen[l] {
			t.Fatalf("line %d never requested", l)
		}
	}
}

func TestStreamWriteMode(t *testing.T) {
	r := newDMARig(t)
	r.eng.Stream(0, 128, true, 0 /* defaults to 8 */, func() {})
	r.run()
	if len(r.dir.writes) != 2 {
		t.Fatalf("writes = %d, want 2", len(r.dir.writes))
	}
}

func TestStrayResponsePanics(t *testing.T) {
	r := newDMARig(t)
	defer func() {
		if recover() == nil {
			t.Error("stray response did not panic")
		}
	}()
	r.eng.Receive(msg.Message{Type: msg.Resp, Addr: 0x99})
}

func TestDuplicateLineRequests(t *testing.T) {
	r := newDMARig(t)
	done := 0
	// Two reads of the same line must both complete (FIFO matching).
	r.eng.ReadBlock(0x10, func() { done++ })
	r.eng.ReadBlock(0x10, func() { done++ })
	r.run()
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
}
