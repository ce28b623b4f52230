package core

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/memctrl"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
)

// fakeCache is a scripted interconnect endpoint standing in for an L2,
// the TCC, or the DMA engine in directory unit tests.
type fakeCache struct {
	t   testing.TB
	e   *sim.Engine
	ic  *noc.Interconnect
	id  msg.NodeID
	dir msg.NodeID

	// Scripted probe behaviour.
	hasLine map[cachearray.LineAddr]bool // line → dirty
	isTCC   bool                         // TCC never forwards data

	probes      []msg.Message
	resps       []msg.Message
	respTicks   []sim.Tick
	autoUnblock bool
}

func newFake(t testing.TB, e *sim.Engine, ic *noc.Interconnect, id, dir msg.NodeID) *fakeCache {
	f := &fakeCache{t: t, e: e, ic: ic, id: id, dir: dir,
		hasLine: make(map[cachearray.LineAddr]bool), autoUnblock: true}
	ic.Register(id, f)
	return f
}

func (f *fakeCache) Receive(m msg.Message) {
	switch m.Type {
	case msg.PrbInv, msg.PrbDowngrade:
		f.probes = append(f.probes, m)
		ack := msg.Message{Type: msg.PrbAck, Addr: m.Addr, Src: f.id, Dst: m.Src, TxnID: m.TxnID}
		if dirty, ok := f.hasLine[m.Addr]; ok && !f.isTCC {
			ack.HasData = true
			ack.Dirty = dirty
		}
		if m.Type == msg.PrbInv {
			delete(f.hasLine, m.Addr)
		} else if f.hasLine[m.Addr] {
			// Downgrade: an M holder becomes O and stays dirty.
		}
		f.ic.Send(ack)
	case msg.Resp, msg.WBAck, msg.AtomicResp, msg.FlushAck:
		f.resps = append(f.resps, m)
		f.respTicks = append(f.respTicks, f.e.Now())
		if m.Type == msg.Resp && f.autoUnblock && !f.isTCC {
			f.ic.Send(msg.Message{Type: msg.Unblock, Addr: m.Addr, Src: f.id, Dst: f.dir, TxnID: m.TxnID})
		}
	default:
		f.t.Errorf("fake %d: unexpected %s", f.id, m)
	}
}

func (f *fakeCache) send(typ msg.Type, addr cachearray.LineAddr) {
	f.ic.Send(msg.Message{Type: typ, Addr: addr, Src: f.id, Dst: f.dir})
}

func (f *fakeCache) lastResp() msg.Message {
	if len(f.resps) == 0 {
		f.t.Fatalf("fake %d: no responses", f.id)
	}
	return f.resps[len(f.resps)-1]
}

// rig is a directory test rig with two fake L2s, a fake TCC and a fake
// DMA engine.
type rig struct {
	t    testing.TB
	e    *sim.Engine
	mem  *memctrl.Controller
	fm   *memdata.Memory
	dir  *Directory
	l2a  *fakeCache
	l2b  *fakeCache
	tcc  *fakeCache
	dma  *fakeCache
	opts Options
}

func newRig(t testing.TB, opts Options, geo Geometry) *rig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 1_000_000
	ic := noc.New(e, noc.Config{Latency: 2})
	mem := memctrl.New(e, memctrl.Config{Latency: 50, CyclesPerAccess: 2})
	fm := memdata.New()

	const (
		l2aID = msg.NodeID(0)
		l2bID = msg.NodeID(1)
		tccID = msg.NodeID(2)
		dmaID = msg.NodeID(3)
		dirID = msg.NodeID(4)
	)
	d := NewDirectory(e, ic, mem, fm, DirectoryConfig{
		ID: dirID, L2s: []msg.NodeID{l2aID, l2bID}, TCCs: []msg.NodeID{tccID},
		Opts: opts, Timing: Timing{DirLatency: 5, LLCLatency: 5}, Geo: geo,
	})
	ic.Register(dirID, d)

	r := &rig{
		t: t, e: e, mem: mem, fm: fm, dir: d, opts: opts,
		l2a: newFake(t, e, ic, l2aID, dirID),
		l2b: newFake(t, e, ic, l2bID, dirID),
		tcc: newFake(t, e, ic, tccID, dirID),
		dma: newFake(t, e, ic, dmaID, dirID),
	}
	r.tcc.isTCC = true
	r.dma.autoUnblock = false // DMA transactions complete without unblocks
	return r
}

func testGeo() Geometry {
	return Geometry{LLCSizeBytes: 16 << 10, LLCAssoc: 4, DirEntries: 64, DirAssoc: 4, BlockSize: 64}
}

func (r *rig) run() {
	r.t.Helper()
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
	if !r.dir.Idle() {
		r.t.Fatal("directory not idle after run")
	}
}

func (r *rig) entry(addr cachearray.LineAddr) (string, int, uint64) {
	return r.dir.EntryState(addr)
}
