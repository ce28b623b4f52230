package corepair

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// fakeDir is a scripted directory endpoint: it answers every request
// with a configurable grant and records the traffic.
type fakeDir struct {
	e  *sim.Engine
	ic *noc.Interconnect
	id msg.NodeID

	reqs     []msg.Message
	unblocks []msg.Message
	acks     []msg.Message
	held     []msg.Message
	grant    func(m msg.Message) msg.Grant
	hold     func(m msg.Message) bool // true: park the request, respond on release()
}

// release answers every held request (with the configured grant).
func (d *fakeDir) release() {
	held := d.held
	d.held = nil
	for _, m := range held {
		d.respond(m)
	}
}

func (d *fakeDir) respond(m msg.Message) {
	g := msg.GrantS
	if d.grant != nil {
		g = d.grant(m)
	}
	d.ic.Send(msg.Message{Type: msg.Resp, Addr: m.Addr, Src: d.id, Dst: m.Src, Grant: g, TxnID: 77})
}

func (d *fakeDir) Receive(m msg.Message) {
	switch m.Type {
	case msg.RdBlk, msg.RdBlkS, msg.RdBlkM:
		d.reqs = append(d.reqs, m)
		if d.hold != nil && d.hold(m) {
			d.held = append(d.held, m)
			return
		}
		d.respond(m)
	case msg.VicDirty, msg.VicClean:
		d.reqs = append(d.reqs, m)
		d.ic.Send(msg.Message{Type: msg.WBAck, Addr: m.Addr, Src: d.id, Dst: m.Src})
	case msg.Unblock:
		d.unblocks = append(d.unblocks, m)
	case msg.PrbAck:
		d.acks = append(d.acks, m)
	}
}

type cpRig struct {
	t   testing.TB
	e   *sim.Engine
	cp  *CorePair
	dir *fakeDir
}

func newCPRig(t testing.TB, cfg Config) *cpRig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 1_000_000
	reg := stats.NewRegistry()
	ic := noc.New(e, noc.Config{Latency: 2}, reg.Scope("noc"))
	const cpID, dirID = msg.NodeID(0), msg.NodeID(9)
	d := &fakeDir{e: e, ic: ic, id: dirID}
	ic.Register(dirID, d)
	cp := New(e, ic, cpID, dirID, cfg, reg.Scope("cp"))
	return &cpRig{t: t, e: e, cp: cp, dir: d}
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.L2SizeBytes = 4 * 2 * 64 // 4 sets × 2 ways
	cfg.L2Assoc = 2
	cfg.L1DSizeBytes = 2 * 64
	cfg.L1DAssoc = 2
	cfg.L1ISizeBytes = 2 * 64
	cfg.L1IAssoc = 2
	return cfg
}

func (r *cpRig) run() {
	r.t.Helper()
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
}

func TestLoadMissSendsRdBlk(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	done := false
	r.cp.Access(0, Load, 0x10, func() { done = true })
	r.run()
	if !done {
		t.Fatal("load never completed")
	}
	if len(r.dir.reqs) != 1 || r.dir.reqs[0].Type != msg.RdBlk {
		t.Fatalf("reqs = %v", r.dir.reqs)
	}
	if len(r.dir.unblocks) != 1 {
		t.Fatal("fill did not unblock the directory")
	}
	if r.cp.L2State(0x10) != Shared {
		t.Fatalf("state = %s, want S", r.cp.L2State(0x10))
	}
}

func TestIFetchMissSendsRdBlkS(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.cp.Access(0, IFetch, 0x10, func() {})
	r.run()
	if len(r.dir.reqs) != 1 || r.dir.reqs[0].Type != msg.RdBlkS {
		t.Fatalf("reqs = %v, want RdBlkS", r.dir.reqs)
	}
}

func TestStoreMissSendsRdBlkM(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantM }
	r.cp.Access(0, Store, 0x10, func() {})
	r.run()
	if len(r.dir.reqs) != 1 || r.dir.reqs[0].Type != msg.RdBlkM {
		t.Fatalf("reqs = %v, want RdBlkM", r.dir.reqs)
	}
	if r.cp.L2State(0x10) != Modified {
		t.Fatalf("state = %s, want M", r.cp.L2State(0x10))
	}
}

func TestSilentExclusiveToModified(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantE }
	r.cp.Access(0, Load, 0x10, func() {})
	r.run()
	if r.cp.L2State(0x10) != Exclusive {
		t.Fatalf("state = %s, want E", r.cp.L2State(0x10))
	}
	nreqs := len(r.dir.reqs)
	r.cp.Access(0, Store, 0x10, func() {})
	r.run()
	// The E→M transition is silent: no directory traffic (§II-B).
	if len(r.dir.reqs) != nreqs {
		t.Fatalf("silent E→M sent %v", r.dir.reqs[nreqs:])
	}
	if r.cp.L2State(0x10) != Modified {
		t.Fatalf("state = %s, want M", r.cp.L2State(0x10))
	}
}

func TestStoreOnSharedUpgrades(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.cp.Access(0, Load, 0x10, func() {}) // granted S
	r.run()
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantM }
	r.cp.Access(0, Store, 0x10, func() {})
	r.run()
	last := r.dir.reqs[len(r.dir.reqs)-1]
	if last.Type != msg.RdBlkM {
		t.Fatalf("upgrade sent %s, want RdBlkM", last.Type)
	}
	if r.cp.L2State(0x10) != Modified {
		t.Fatalf("state = %s", r.cp.L2State(0x10))
	}
}

func TestMSHRCoalescing(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	done := 0
	// Both cores load the same line concurrently: one RdBlk.
	r.cp.Access(0, Load, 0x10, func() { done++ })
	r.cp.Access(1, Load, 0x10, func() { done++ })
	r.run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if len(r.dir.reqs) != 1 {
		t.Fatalf("reqs = %d, want 1 (coalesced)", len(r.dir.reqs))
	}
}

// TestFillReplayReopensMiss: replaying a fill's waiters can open a new
// miss on the same line (a store joined a load's RdBlk, and the Shared
// grant makes it upgrade). Every waiter still runs, and the upgrade gets
// its own MSHR entry.
func TestFillReplayReopensMiss(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(m msg.Message) msg.Grant {
		if m.Type == msg.RdBlkM {
			return msg.GrantM
		}
		return msg.GrantS
	}
	loaded, stored := false, false
	r.cp.Access(0, Load, 0x10, func() { loaded = true })
	r.cp.Access(1, Store, 0x10, func() { stored = true })
	r.run()
	if !loaded || !stored {
		t.Fatalf("load done %v, store done %v", loaded, stored)
	}
	if len(r.dir.reqs) != 2 || r.dir.reqs[0].Type != msg.RdBlk || r.dir.reqs[1].Type != msg.RdBlkM {
		t.Fatalf("reqs = %v, want RdBlk then RdBlkM", r.dir.reqs)
	}
	if len(r.dir.unblocks) != 2 || r.cp.OutstandingMisses() != 0 {
		t.Fatalf("unblocks = %d, outstanding misses = %d", len(r.dir.unblocks), r.cp.OutstandingMisses())
	}
	if r.cp.L2State(0x10) != Modified {
		t.Fatalf("state = %s, want M", r.cp.L2State(0x10))
	}
}

func TestL1HitAfterFill(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.cp.Access(0, Load, 0x10, func() {})
	r.run()
	hitsBefore := r.cp.l1Hits.Value()
	r.cp.Access(0, Load, 0x10, func() {})
	r.run()
	if r.cp.l1Hits.Value() != hitsBefore+1 {
		t.Fatal("second load did not hit the L1")
	}
	if len(r.dir.reqs) != 1 {
		t.Fatal("L1 hit generated directory traffic")
	}
}

func TestCapacityEvictionSendsVictim(t *testing.T) {
	r := newCPRig(t, tinyConfig()) // L2: 4 sets × 2 ways
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantM }
	// Three stores to set 0 (lines 0x0, 0x4, 0x8) force a dirty victim.
	r.cp.Access(0, Store, 0x00, func() {})
	r.run()
	r.cp.Access(0, Store, 0x04, func() {})
	r.run()
	r.cp.Access(0, Store, 0x08, func() {})
	r.run()
	vics := 0
	for _, m := range r.dir.reqs {
		if m.Type == msg.VicDirty {
			vics++
		}
	}
	if vics == 0 {
		t.Fatal("no dirty victim sent")
	}
	if r.cp.OutstandingMisses() != 0 {
		t.Fatal("MSHR not drained")
	}
}

// TestFillPinsLinesWithMissInFlight: a conflicting fill must not
// victimize a line whose upgrade RdBlkM is still outstanding. Without
// the MSHR pin, the late fill would install Modified next to the line's
// own live victim-buffer entry — a stale copy that answers probes after
// the grant lands (the BugEvictDuringUpgrade hazard in protocheck).
func TestFillPinsLinesWithMissInFlight(t *testing.T) {
	r := newCPRig(t, tinyConfig()) // L2: 4 sets × 2 ways
	// Fill both ways of set 0 with Shared lines.
	r.cp.Access(0, Load, 0x00, func() {})
	r.run()
	r.cp.Access(0, Load, 0x04, func() {})
	r.run()

	// Park the upgrade for 0x00 at the directory.
	r.dir.hold = func(m msg.Message) bool { return m.Type == msg.RdBlkM }
	r.dir.grant = func(m msg.Message) msg.Grant {
		if m.Type == msg.RdBlkM {
			return msg.GrantM
		}
		return msg.GrantS
	}
	upgraded := false
	r.cp.Access(0, Store, 0x00, func() { upgraded = true })
	r.run()
	if typ, ok := r.cp.MissType(0x00); !ok || typ != msg.RdBlkM {
		t.Fatalf("MissType(0x00) = %v, %v; want an in-flight RdBlkM", typ, ok)
	}

	// A third line maps to set 0: its fill must victimize 0x04, never
	// the pinned 0x00.
	r.cp.Access(0, Load, 0x08, func() {})
	r.run()
	if st := r.cp.L2State(0x00); st != Shared {
		t.Fatalf("line with miss in flight was evicted: L2State(0x00) = %s, want S", st)
	}
	for _, m := range r.dir.reqs {
		if (m.Type == msg.VicClean || m.Type == msg.VicDirty) && m.Addr == 0x00 {
			t.Fatalf("line with miss in flight was victimized: %s", m)
		}
	}

	// Release the upgrade: the fill finds the line resident, installs M.
	r.dir.release()
	r.run()
	if !upgraded {
		t.Fatal("upgrade never completed")
	}
	if st := r.cp.L2State(0x00); st != Modified {
		t.Fatalf("L2State(0x00) = %s, want M", st)
	}
	if _, ok := r.cp.MissType(0x00); ok {
		t.Fatal("MSHR entry not retired after fill")
	}
}

func TestCleanVictimNoisyEviction(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	// Shared lines evict noisily as VicClean (§II-D).
	r.cp.Access(0, Load, 0x00, func() {})
	r.run()
	r.cp.Access(0, Load, 0x04, func() {})
	r.run()
	r.cp.Access(0, Load, 0x08, func() {})
	r.run()
	found := false
	for _, m := range r.dir.reqs {
		if m.Type == msg.VicClean {
			found = true
		}
	}
	if !found {
		t.Fatal("no clean victim sent")
	}
}

func probeMsg(typ msg.Type, addr cachearray.LineAddr) msg.Message {
	return msg.Message{Type: typ, Addr: addr, Src: 9, Dst: 0, TxnID: 5}
}

func TestProbeDowngradeModifiedToOwned(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantM }
	r.cp.Access(0, Store, 0x10, func() {})
	r.run()
	r.cp.Receive(probeMsg(msg.PrbDowngrade, 0x10))
	r.run()
	if r.cp.L2State(0x10) != Owned {
		t.Fatalf("state = %s, want O after downgrade", r.cp.L2State(0x10))
	}
	ack := r.dir.acks[len(r.dir.acks)-1]
	if !ack.HasData || !ack.Dirty {
		t.Fatalf("ack = %+v, want dirty data", ack)
	}
}

func TestProbeDowngradeExclusiveToShared(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantE }
	r.cp.Access(0, Load, 0x10, func() {})
	r.run()
	r.cp.Receive(probeMsg(msg.PrbDowngrade, 0x10))
	r.run()
	if r.cp.L2State(0x10) != Shared {
		t.Fatalf("state = %s, want S", r.cp.L2State(0x10))
	}
	ack := r.dir.acks[len(r.dir.acks)-1]
	if !ack.HasData || ack.Dirty {
		t.Fatalf("ack = %+v, want clean data", ack)
	}
}

func TestProbeInvalidate(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantM }
	r.cp.Access(0, Store, 0x10, func() {})
	r.run()
	r.cp.Receive(probeMsg(msg.PrbInv, 0x10))
	r.run()
	if r.cp.L2State(0x10) != Invalid {
		t.Fatalf("state = %s, want I", r.cp.L2State(0x10))
	}
	// The next access misses again (L1 copies were dropped too).
	r.cp.Access(0, Load, 0x10, func() {})
	r.run()
	if r.dir.reqs[len(r.dir.reqs)-1].Type != msg.RdBlk {
		t.Fatal("post-invalidation access did not miss")
	}
}

func TestProbeMissAcksWithoutData(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.cp.Receive(probeMsg(msg.PrbInv, 0x77))
	r.run()
	ack := r.dir.acks[0]
	if ack.HasData || ack.Dirty {
		t.Fatalf("ack = %+v, want no data", ack)
	}
	if ack.TxnID != 5 {
		t.Fatal("ack lost the transaction id")
	}
}

func TestProbeHitsWriteBackBuffer(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.dir.grant = func(msg.Message) msg.Grant { return msg.GrantM }
	r.cp.Access(0, Store, 0x00, func() {})
	r.run()
	// Fake an in-flight victim: victimize by filling the set, but
	// intercept before the WBAck arrives by probing directly.
	r.cp.victimize(0x00, Modified)
	r.cp.l2.Invalidate(0x00)
	r.cp.Receive(probeMsg(msg.PrbInv, 0x00))
	r.run()
	var last msg.Message
	found := false
	for _, a := range r.dir.acks {
		if a.Addr == 0x00 {
			last, found = a, true
		}
	}
	if !found || !last.HasData || !last.Dirty {
		t.Fatalf("wb-buffer probe ack = %+v, want dirty data", last)
	}
}

func TestForEachL2Line(t *testing.T) {
	r := newCPRig(t, tinyConfig())
	r.cp.Access(0, Load, 0x10, func() {})
	r.cp.Access(0, Load, 0x21, func() {})
	r.run()
	n := 0
	r.cp.ForEachL2Line(func(line cachearray.LineAddr, st MOESI) {
		n++
		if st != Shared {
			t.Errorf("line %#x state %s", uint64(line), st)
		}
	})
	if n != 2 {
		t.Fatalf("visited %d lines, want 2", n)
	}
}

func TestMOESIStrings(t *testing.T) {
	want := map[MOESI]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%d = %q, want %q", st, st.String(), s)
		}
	}
}
