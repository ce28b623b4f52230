package gpucache

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
)

// fakeDir answers TCC requests with canned responses.
type fakeDir struct {
	ic   *noc.Interconnect
	id   msg.NodeID
	reqs []msg.Message
	fm   *memdata.Memory
}

func (d *fakeDir) Receive(m msg.Message) {
	d.reqs = append(d.reqs, m)
	switch m.Type {
	case msg.RdBlk:
		d.ic.Send(msg.Message{Type: msg.Resp, Addr: m.Addr, Src: d.id, Dst: m.Src, Grant: msg.GrantS})
	case msg.WT:
		d.ic.Send(msg.Message{Type: msg.WBAck, Addr: m.Addr, Src: d.id, Dst: m.Src})
	case msg.Atomic:
		old := d.fm.RMW(m.WordAddr, m.AOp, m.Operand, m.Compare)
		d.ic.Send(msg.Message{Type: msg.AtomicResp, Addr: m.Addr, Src: d.id, Dst: m.Src, Old: old})
	case msg.Flush:
		d.ic.Send(msg.Message{Type: msg.FlushAck, Addr: m.Addr, Src: d.id, Dst: m.Src})
	}
}

func (d *fakeDir) count(typ msg.Type) int {
	n := 0
	for _, m := range d.reqs {
		if m.Type == typ {
			n++
		}
	}
	return n
}

type gpuRig struct {
	t   testing.TB
	e   *sim.Engine
	g   *GPUCaches
	dir *fakeDir
	fm  *memdata.Memory
}

func newGPURig(t testing.TB, cfg Config) *gpuRig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 1_000_000
	ic := noc.New(e, noc.Config{Latency: 2})
	fm := memdata.New()
	const dirID = msg.NodeID(6)
	d := &fakeDir{ic: ic, id: dirID, fm: fm}
	ic.Register(dirID, d)
	ids := []msg.NodeID{4}
	if cfg.NumTCCs > 1 {
		ids = ids[:0]
		for b := 0; b < cfg.NumTCCs; b++ {
			ids = append(ids, msg.NodeID(4+b*10))
		}
	}
	g := New(e, ic, ids, dirID, fm, cfg, 2) // CUs 0 and 1
	return &gpuRig{t: t, e: e, g: g, dir: d, fm: fm}
}

func tinyGPUConfig() Config {
	cfg := DefaultConfig()
	cfg.TCPSizeBytes = 2 * 64
	cfg.TCPAssoc = 2
	cfg.TCCSizeBytes = 4 * 2 * 64 // 4 sets × 2 ways
	cfg.TCCAssoc = 2
	cfg.SQCSizeBytes = 2 * 64
	cfg.SQCAssoc = 2
	return cfg
}

func (r *gpuRig) run() {
	r.t.Helper()
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
	if r.g.Outstanding() != 0 {
		r.t.Fatal("GPU caches left outstanding transactions")
	}
}

func TestReadMissFillsTCPAndTCC(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	done := false
	r.g.ReadLine(0, 0x10, func() { done = true })
	r.run()
	if !done {
		t.Fatal("read never completed")
	}
	if r.dir.count(msg.RdBlk) != 1 {
		t.Fatalf("RdBlks = %d", r.dir.count(msg.RdBlk))
	}
	if !r.g.TCCHas(0x10) {
		t.Fatal("fill did not allocate in the TCC")
	}
	// Re-read hits the TCP: no new directory traffic.
	r.g.ReadLine(0, 0x10, func() {})
	r.run()
	if r.dir.count(msg.RdBlk) != 1 {
		t.Fatal("TCP hit generated directory traffic")
	}
}

func TestTCCMSHRCoalescing(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	done := 0
	r.g.ReadLine(0, 0x10, func() { done++ })
	r.g.ReadLine(1, 0x10, func() { done++ })
	r.run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if r.dir.count(msg.RdBlk) != 1 {
		t.Fatalf("RdBlks = %d, want 1 (coalesced)", r.dir.count(msg.RdBlk))
	}
}

func TestWriteThroughSendsWTWithRetain(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig()) // default: write-through
	done := false
	r.g.WriteLine(0, 0x20, func() { done = true })
	r.run()
	if !done {
		t.Fatal("store never acknowledged")
	}
	if r.dir.count(msg.WT) != 1 {
		t.Fatalf("WTs = %d, want 1", r.dir.count(msg.WT))
	}
	if !r.dir.reqs[0].Retain {
		t.Fatal("write-through WT must mark the TCC as retaining a copy")
	}
	if !r.g.TCCHas(0x20) {
		t.Fatal("write-through TCC should keep a valid copy")
	}
}

func TestWriteBackBuffersDirtyAndEvicts(t *testing.T) {
	cfg := tinyGPUConfig()
	cfg.WriteBackL2 = true
	r := newGPURig(t, cfg)
	// Writes buffer in the TCC: no WTs yet.
	r.g.WriteLine(0, 0x00, func() {})
	r.g.WriteLine(0, 0x04, func() {})
	r.run()
	if r.dir.count(msg.WT) != 0 {
		t.Fatalf("WB-mode writes sent %d WTs", r.dir.count(msg.WT))
	}
	// A third line in set 0 evicts a dirty line → WT (write-back).
	r.g.WriteLine(0, 0x08, func() {})
	r.run()
	if r.dir.count(msg.WT) != 1 {
		t.Fatalf("WTs after eviction = %d, want 1", r.dir.count(msg.WT))
	}
	var wt msg.Message
	for _, m := range r.dir.reqs {
		if m.Type == msg.WT {
			wt = m
		}
	}
	if wt.Retain {
		t.Fatal("write-back eviction must not claim retention")
	}
}

func TestReleaseFlushWritesBackDirtyLines(t *testing.T) {
	cfg := tinyGPUConfig()
	cfg.WriteBackL2 = true
	r := newGPURig(t, cfg)
	r.g.WriteLine(0, 0x00, func() {})
	r.g.WriteLine(0, 0x04, func() {})
	r.run()
	flushed := false
	r.g.ReleaseFlush(func() { flushed = true })
	r.run()
	if !flushed {
		t.Fatal("flush never acknowledged")
	}
	if r.dir.count(msg.WT) != 2 {
		t.Fatalf("flush WTs = %d, want 2", r.dir.count(msg.WT))
	}
	if r.dir.count(msg.Flush) != 1 {
		t.Fatal("Flush marker not sent")
	}
}

func TestSystemAtomicBypassesTCC(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	r.g.ReadLine(0, 0x10, func() {}) // cache the line first
	r.run()
	r.fm.Write(0x10*64, 7)
	var old uint64
	r.g.AtomicSystem(0, 0x10, 0x10*64, memdata.AtomicAdd, 5, 0, func(o uint64) { old = o })
	r.run()
	if old != 7 || r.fm.Read(0x10*64) != 12 {
		t.Fatalf("old=%d val=%d", old, r.fm.Read(0x10*64))
	}
	if r.dir.count(msg.Atomic) != 1 {
		t.Fatal("system atomic did not reach the directory")
	}
	// SLC requests bypass the TCC: the local copy is dropped (§II-C).
	if r.g.TCCHas(0x10) {
		t.Fatal("TCC copy must be invalidated by an SLC atomic")
	}
}

func TestDeviceAtomicExecutesAtTCC(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	r.fm.Write(0x30*64, 100)
	var old uint64
	r.g.AtomicDevice(0, 0x30, 0x30*64, memdata.AtomicAdd, 1, 0, func(o uint64) { old = o })
	r.run()
	if old != 100 || r.fm.Read(0x30*64) != 101 {
		t.Fatalf("old=%d val=%d", old, r.fm.Read(0x30*64))
	}
	if r.dir.count(msg.Atomic) != 0 {
		t.Fatal("device atomic must not reach the directory")
	}
	// Write-through mode forwards the result as a WT.
	if r.dir.count(msg.WT) != 1 {
		t.Fatalf("WTs = %d, want 1", r.dir.count(msg.WT))
	}
}

func TestProbeInvalidatesWithoutForwarding(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	r.g.ReadLine(0, 0x10, func() {})
	r.run()
	got := []msg.Message{}
	r.g.ic.Register(msg.NodeID(99), noc.HandlerFunc(func(m msg.Message) { got = append(got, m) }))
	r.g.Receive(msg.Message{Type: msg.PrbInv, Addr: 0x10, Src: 99, Dst: r.g.ids[0], TxnID: 3})
	r.run()
	if len(got) != 1 || got[0].Type != msg.PrbAck {
		t.Fatalf("acks = %v", got)
	}
	// The TCC never forwards data (§II-C) but does invalidate itself.
	if got[0].HasData || got[0].Dirty {
		t.Fatal("TCC must not forward data on probes")
	}
	if r.g.TCCHas(0x10) {
		t.Fatal("TCC did not self-invalidate")
	}
}

func TestProbeInvalidateDirtyWBLineFlushes(t *testing.T) {
	cfg := tinyGPUConfig()
	cfg.WriteBackL2 = true
	r := newGPURig(t, cfg)
	r.g.WriteLine(0, 0x10, func() {})
	r.run()
	r.g.Receive(msg.Message{Type: msg.PrbInv, Addr: 0x10, Src: 6, Dst: r.g.ids[0], TxnID: 3})
	r.run()
	if r.dir.count(msg.WT) != 1 {
		t.Fatal("invalidated dirty WB line must be flushed out")
	}
}

func TestAcquireInvalidateDropsTCP(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	r.g.ReadLine(0, 0x10, func() {})
	r.run()
	r.g.AcquireInvalidate(0)
	// The next read misses the TCP but hits the TCC.
	tccHits := r.g.Stats.TCCHits
	r.g.ReadLine(0, 0x10, func() {})
	r.run()
	if r.g.Stats.TCCHits != tccHits+1 {
		t.Fatal("post-acquire read should hit the TCC, not the TCP")
	}
}

func TestIFetchThroughSQC(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	done := false
	r.g.IFetch(0, 0x40, func() { done = true })
	r.run()
	if !done {
		t.Fatal("ifetch never completed")
	}
	if r.g.Stats.SQCMisses != 1 {
		t.Fatal("cold ifetch should miss the SQC")
	}
	r.g.IFetch(1, 0x40, func() {})
	r.run()
	if r.g.Stats.SQCHits != 1 {
		t.Fatal("warm ifetch should hit the SQC")
	}
}

func TestWTOrderingFIFOPerLine(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	var order []int
	r.g.WriteLine(0, 0x50, func() { order = append(order, 1) })
	r.g.WriteLine(1, 0x50, func() { order = append(order, 2) })
	r.run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestMultiTCCBankRouting(t *testing.T) {
	cfg := tinyGPUConfig()
	cfg.NumTCCs = 2
	cfg.TCCSizeBytes *= 2 // keep per-bank geometry valid after the split
	r := newGPURig(t, cfg)
	// Lines in different 4 KB superblocks land in different banks.
	lineA := cachearray.LineAddr(0)      // superblock 0 → bank 0
	lineB := cachearray.LineAddr(1 << 6) // superblock 1 → bank 1
	r.g.ReadLine(0, lineA, func() {})
	r.g.ReadLine(0, lineB, func() {})
	r.run()
	if r.g.bankFor(lineA) == r.g.bankFor(lineB) {
		t.Fatal("superblock interleave broken")
	}
	// Requests carried each bank's own source node.
	srcs := map[msg.NodeID]bool{}
	for _, m := range r.dir.reqs {
		if m.Type == msg.RdBlk {
			srcs[m.Src] = true
		}
	}
	if len(srcs) != 2 {
		t.Fatalf("requests from %d banks, want 2", len(srcs))
	}
	if !r.g.TCCHas(lineA) || !r.g.TCCHas(lineB) {
		t.Fatal("fills missing")
	}
	// A probe for lineB invalidates only bank 1's copy.
	r.g.Receive(msg.Message{Type: msg.PrbInv, Addr: lineB, Src: 6, Dst: r.g.idOf(lineB), TxnID: 9})
	r.run()
	if r.g.TCCHas(lineB) {
		t.Fatal("probe did not invalidate the owning bank")
	}
	if !r.g.TCCHas(lineA) {
		t.Fatal("probe leaked into the other bank")
	}
}

// TestSteadyStateAllocs: once the engine, the interconnect, the TCC's
// per-line lists and the device-atomic free list are warm, a TCC read
// miss, a write-through, a system atomic and a device atomic each
// allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	r := newGPURig(t, tinyGPUConfig())
	done := func() {}
	atomicDone := func(uint64) {}
	// Three lines of one 2-way TCC set (and of the 2-way, one-set TCP):
	// reading them round-robin misses in both every time.
	lines := []cachearray.LineAddr{0x10, 0x14, 0x18}
	next := 0
	for _, tc := range []struct {
		name string
		op   func()
		sent msg.Type
	}{
		{"TCCReadMiss", func() { r.g.ReadLine(0, lines[next%len(lines)], done); next++ }, msg.RdBlk},
		{"WriteThrough", func() { r.g.WriteLine(0, 0x20, done) }, msg.WT},
		{"SystemAtomic", func() { r.g.AtomicSystem(0, 0x30, 0x30*64, memdata.AtomicAdd, 1, 0, atomicDone) }, msg.Atomic},
		// Write-through TCC: the device atomic forwards its result as a WT.
		{"DeviceAtomic", func() { r.g.AtomicDevice(0, 0x40, 0x40*64, memdata.AtomicAdd, 1, 0, atomicDone) }, msg.WT},
	} {
		op := func() {
			r.dir.reqs = r.dir.reqs[:0]
			tc.op()
			r.run()
		}
		// Warm up the event pool, the interconnect and the per-line
		// lists.
		for i := 0; i < 512; i++ {
			op()
		}
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", tc.name, got)
		}
		if len(r.dir.reqs) != 1 || r.dir.reqs[0].Type != tc.sent {
			t.Errorf("%s sent %v to the directory, want one %s", tc.name, r.dir.reqs, tc.sent)
		}
	}
}
