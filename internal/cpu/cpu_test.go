package cpu

import (
	"testing"

	"hscsim/internal/corepair"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/prog"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// grantAll is a minimal directory granting every request.
type grantAll struct {
	ic      *noc.Interconnect
	id      msg.NodeID
	rdBlkS  int
	demand  int
	victims int
}

func (d *grantAll) Receive(m msg.Message) {
	switch m.Type {
	case msg.RdBlk, msg.RdBlkS, msg.RdBlkM:
		d.demand++
		if m.Type == msg.RdBlkS {
			d.rdBlkS++
		}
		g := msg.GrantS
		if m.Type == msg.RdBlkM {
			g = msg.GrantM
		}
		d.ic.Send(msg.Message{Type: msg.Resp, Addr: m.Addr, Src: d.id, Dst: m.Src, Grant: g})
	case msg.VicDirty, msg.VicClean:
		d.victims++
		d.ic.Send(msg.Message{Type: msg.WBAck, Addr: m.Addr, Src: d.id, Dst: m.Src})
	case msg.Unblock:
	}
}

type fakeDispatcher struct{ launched []*prog.Kernel }

func (f *fakeDispatcher) Launch(k *prog.Kernel, h *prog.KernelHandle) {
	f.launched = append(f.launched, k)
	h.CompleteKernel()
}

type fakeDMA struct{ streams int }

func (f *fakeDMA) Stream(base uint64, length int, write bool, maxOut int, done func()) {
	f.streams++
	done()
}

type coreRig struct {
	t    *testing.T
	e    *sim.Engine
	core *Core
	fm   *memdata.Memory
	dir  *grantAll
	gpu  *fakeDispatcher
	dma  *fakeDMA
}

func statsScope(t *testing.T) *stats.Scope {
	t.Helper()
	return stats.NewRegistry().Scope("core")
}

func newCoreRig(t *testing.T) *coreRig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 1_000_000
	reg := stats.NewRegistry()
	ic := noc.New(e, noc.Config{Latency: 2}, reg.Scope("noc"))
	fm := memdata.New()
	d := &grantAll{ic: ic, id: 9}
	ic.Register(9, d)
	pair := corepair.New(e, ic, 0, 9, corepair.DefaultConfig(), reg.Scope("cp"))
	gpu := &fakeDispatcher{}
	dma := &fakeDMA{}
	c := New(e, pair, 0, fm, gpu, dma, DefaultConfig(), 0xF0000000, reg.Scope("core"))
	return &coreRig{t: t, e: e, core: c, fm: fm, dir: d, gpu: gpu, dma: dma}
}

func (r *coreRig) runThread(fn func(*prog.CPUThread)) {
	r.t.Helper()
	exited := false
	th := prog.NewCPUThread(0, fn)
	r.core.Run(th, func() { exited = true })
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
	if !exited {
		r.t.Fatal("thread never exited")
	}
}

func TestCoreExecutesOpsInOrder(t *testing.T) {
	r := newCoreRig(t)
	var loaded uint64
	r.runThread(func(c *prog.CPUThread) {
		c.Store(0x100, 7)
		loaded = c.Load(0x100)
		c.Compute(100)
	})
	if loaded != 7 {
		t.Fatalf("loaded = %d", loaded)
	}
	if r.fm.Read(0x100) != 7 {
		t.Fatal("store not applied to functional memory")
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	r := newCoreRig(t)
	r.runThread(func(c *prog.CPUThread) {
		c.Compute(5000)
	})
	if r.e.Now() < 5000 {
		t.Fatalf("now = %d, want ≥ 5000", r.e.Now())
	}
}

func TestAtomicRMWAtOwnership(t *testing.T) {
	r := newCoreRig(t)
	var old uint64
	r.runThread(func(c *prog.CPUThread) {
		c.Store(0x200, 10)
		old = c.AtomicAdd(0x200, 3)
	})
	if old != 10 || r.fm.Read(0x200) != 13 {
		t.Fatalf("old=%d val=%d", old, r.fm.Read(0x200))
	}
}

func TestIFetchTrafficAppears(t *testing.T) {
	r := newCoreRig(t)
	r.runThread(func(c *prog.CPUThread) {
		for i := 0; i < 100; i++ {
			c.Compute(1)
		}
	})
	// 100 ops × 8 B/op over a 4 KB footprint crosses line boundaries:
	// some RdBlkS ifetches must reach the directory.
	if r.dir.rdBlkS == 0 {
		t.Fatal("no instruction-fetch traffic")
	}
}

func TestLaunchAndWaitKernel(t *testing.T) {
	r := newCoreRig(t)
	k := &prog.Kernel{Name: "k"}
	r.runThread(func(c *prog.CPUThread) {
		h := c.Launch(k)
		c.Wait(h)
	})
	if len(r.gpu.launched) != 1 || r.gpu.launched[0] != k {
		t.Fatal("kernel not dispatched")
	}
}

func TestDMAOpDelegates(t *testing.T) {
	r := newCoreRig(t)
	r.runThread(func(c *prog.CPUThread) {
		c.DMAIn(0x1000, 512)
	})
	if r.dma.streams != 1 {
		t.Fatal("DMA stream not issued")
	}
}

func newSBCoreRig(t *testing.T, sbSize int) *coreRig {
	t.Helper()
	r := newCoreRig(t)
	// Rebuild the core with a store buffer.
	cfg := DefaultConfig()
	cfg.StoreBufferSize = sbSize
	r.core = New(r.core.engine, r.core.pair, 0, r.fm, r.gpu, r.dma, cfg, 0xF0000000,
		statsScope(t))
	return r
}

// TestStoreBufferHidesLatency: N independent stores retire faster with
// a store buffer than blocking, and all values land.
func TestStoreBufferHidesLatency(t *testing.T) {
	run := func(sb int) (uint64, *coreRig) {
		var r *coreRig
		if sb > 0 {
			r = newSBCoreRig(t, sb)
		} else {
			r = newCoreRig(t)
		}
		r.runThread(func(c *prog.CPUThread) {
			for i := 0; i < 16; i++ {
				c.Store(memdata.Addr(0x1000+i*256), uint64(i))
			}
		})
		return uint64(r.e.Now()), r
	}
	blocking, _ := run(0)
	buffered, r := run(8)
	if buffered >= blocking {
		t.Fatalf("store buffer did not overlap stores: %d vs %d", buffered, blocking)
	}
	for i := 0; i < 16; i++ {
		if got := r.fm.Read(memdata.Addr(0x1000 + i*256)); got != uint64(i) {
			t.Fatalf("store %d lost: %d", i, got)
		}
	}
}

// TestStoreBufferForwarding: a load after a buffered store to the same
// word observes the store (program order).
func TestStoreBufferForwarding(t *testing.T) {
	r := newSBCoreRig(t, 8)
	var got uint64
	r.runThread(func(c *prog.CPUThread) {
		c.Store(0x2000, 7)
		c.Store(0x2000, 9)
		got = c.Load(0x2000)
	})
	if got != 9 {
		t.Fatalf("forwarded load = %d, want 9 (youngest store)", got)
	}
}

// TestStoreBufferFencesAtomics: an atomic observes every earlier store.
func TestStoreBufferFencesAtomics(t *testing.T) {
	r := newSBCoreRig(t, 8)
	var old uint64
	r.runThread(func(c *prog.CPUThread) {
		c.Store(0x3000, 5)
		old = c.AtomicAdd(0x3000, 1)
	})
	if old != 5 || r.fm.Read(0x3000) != 6 {
		t.Fatalf("old=%d final=%d", old, r.fm.Read(0x3000))
	}
}

// TestStoreBufferCapacityStalls: more stores than slots must stall (and
// be counted) but still retire in order.
func TestStoreBufferCapacityStalls(t *testing.T) {
	r := newSBCoreRig(t, 2)
	r.runThread(func(c *prog.CPUThread) {
		for i := 0; i < 8; i++ {
			c.Store(memdata.Addr(0x4000+i*512), uint64(i+1))
		}
	})
	for i := 0; i < 8; i++ {
		if got := r.fm.Read(memdata.Addr(0x4000 + i*512)); got != uint64(i+1) {
			t.Fatalf("store %d = %d", i, got)
		}
	}
	if r.core.sbStalls.Value() == 0 {
		t.Fatal("no capacity stalls counted")
	}
}

// TestSteadyStateOpAllocs: once the caches are warm, an L1-hit load, a
// store to a line held Modified (blocking or through the store buffer)
// and a compute op allocate nothing. A thread's fixed cost (its
// coroutine, its start event) is the same for n and 2n ops, so it
// cancels out of the difference; a first long run warms the data line
// and every line of the code footprint.
func TestSteadyStateOpAllocs(t *testing.T) {
	const n = 500
	for _, tc := range []struct {
		name string
		sb   int // store buffer entries
		op   func(c *prog.CPUThread)
	}{
		{"load", 0, func(c *prog.CPUThread) { c.Load(0x100) }},
		{"store", 0, func(c *prog.CPUThread) { c.Store(0x100, 1) }},
		{"buffered store", 4, func(c *prog.CPUThread) { c.Store(0x100, 1) }},
		{"compute", 0, func(c *prog.CPUThread) { c.Compute(10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCoreRig(t)
			if tc.sb > 0 {
				r = newSBCoreRig(t, tc.sb)
			}
			allocs := func(ops int) float64 {
				return testing.AllocsPerRun(5, func() {
					r.runThread(func(c *prog.CPUThread) {
						for i := 0; i < ops; i++ {
							tc.op(c)
						}
					})
				})
			}
			allocs(4 * n)
			if perOp := (allocs(2*n) - allocs(n)) / n; perOp != 0 {
				t.Fatalf("%s allocates %g/op in steady state, want 0", tc.name, perOp)
			}
		})
	}
}
