// Package cpu models the CPU cores of the simulated APU. Each core
// executes one workload thread (package prog) in order: memory
// operations walk the CorePair cache hierarchy and block until
// permission is obtained; compute operations advance simulated time.
//
// The paper uses gem5's out-of-order X86O3CPU; the coherence-protocol
// results it reports are driven by the access and sharing pattern, which
// an in-order core preserves (DESIGN.md, substitutions).
package cpu

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/corepair"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/prog"
	"hscsim/internal/sim"
)

// Dispatcher launches GPU kernels on behalf of host threads.
type Dispatcher interface {
	Launch(k *prog.Kernel, h *prog.KernelHandle)
}

// Observer receives issue/retire notifications for the core's memory
// operations. The runtime coherence oracle (internal/verify) attaches
// here to check the data-value invariant: a load must observe a line
// version at least as new as the line's version when the load issued.
// node identifies the core's CorePair L2 on the interconnect.
type Observer interface {
	// LoadIssued fires when a load leaves the core; the returned token is
	// handed back to LoadRetired (the oracle stores the issue-time line
	// version in it).
	LoadIssued(node msg.NodeID, line cachearray.LineAddr) (token uint64)
	// LoadRetired fires when the load's value is bound.
	LoadRetired(node msg.NodeID, line cachearray.LineAddr, token uint64)
	// StoreRetired fires at the store's global serialization point: when
	// the cache access that obtained write permission completes (for
	// buffered stores, that is store-buffer drain, not retire into the
	// buffer). Atomics count as stores.
	StoreRetired(node msg.NodeID, line cachearray.LineAddr)
}

// DMAStreamer runs host-initiated DMA transfers.
type DMAStreamer interface {
	Stream(base uint64, length int, write bool, maxOutstanding int, done func())
}

// Config sets per-core parameters.
type Config struct {
	// CodeFootprintBytes is the instruction working set per thread; the
	// core issues an L1I fetch each time the program counter crosses
	// into a new line of it.
	CodeFootprintBytes uint64
	// BytesPerOp advances the program counter per executed operation.
	BytesPerOp uint64
	// LaunchLatency models kernel-dispatch overhead in ticks.
	LaunchLatency sim.Tick
	// StoreBufferSize > 0 retires stores into a FIFO store buffer that
	// drains in the background (program order preserved; loads forward
	// from the buffer; atomics, DMA and kernel launches fence). 0 — the
	// default — keeps fully blocking stores.
	StoreBufferSize int
	// Observer, when non-nil, receives issue/retire notifications
	// (coherence-oracle hook).
	Observer Observer
}

// DefaultConfig returns a 4 KB code footprint with 8-byte ops and a
// modest kernel-launch overhead.
func DefaultConfig() Config {
	return Config{CodeFootprintBytes: 4 << 10, BytesPerOp: 8, LaunchLatency: 500}
}

// Core executes one workload thread on one CorePair slot.
type Core struct {
	engine *sim.Engine
	pair   *corepair.CorePair
	slot   int // 0 or 1 within the CorePair
	fm     *memdata.Memory
	gpu    Dispatcher
	dma    DMAStreamer
	cfg    Config

	// thread is the core's thread slot, made by its first Run and kept
	// across threads and runs until Abort.
	thread   *prog.CPUThread
	codeBase memdata.Addr
	pc       uint64
	onExit   func()

	// An in-order core has at most one op in flight: it lives here, so
	// the callbacks that finish it are bound once, in New, and issuing
	// an op builds no closure.
	cur       prog.Op
	loadToken uint64 // Observer token of the load in flight
	cb        struct {
		execCur, fenced, loadDone, storeDone, rmwDone, drainDone, resumeZero func()
	}

	// Store buffer (Config.StoreBufferSize > 0).
	sb         []pendingStore
	sbDraining bool
	afterDrain func() // one deferred action waiting for an empty buffer
	afterPop   func() // one deferred action waiting for a free slot

	Stats Stats
}

// Stats are the core's counters.
type Stats struct {
	Ops                 uint64 `stat:"ops"`
	StoreBufferStalls   uint64 `stat:"store_buffer_stalls"`
	StoreBufferForwards uint64 `stat:"store_buffer_forwards"`
}

type pendingStore struct {
	addr memdata.Addr
	val  uint64
}

// New creates a core bound to slot `slot` of pair.
func New(engine *sim.Engine, pair *corepair.CorePair, slot int, fm *memdata.Memory,
	gpu Dispatcher, dma DMAStreamer, cfg Config, codeBase memdata.Addr) *Core {
	c := &Core{
		engine: engine, pair: pair, slot: slot, fm: fm, gpu: gpu, dma: dma, cfg: cfg,
		codeBase: codeBase,
	}
	c.cb.execCur = c.execCur
	c.cb.fenced = c.fenced
	c.cb.loadDone = c.loadDone
	c.cb.storeDone = c.storeDone
	c.cb.rmwDone = c.rmwDone
	c.cb.drainDone = c.drainDone
	c.cb.resumeZero = c.resumeZero
	c.Reset()
	return c
}

// Reset returns the core to its just-constructed state: no thread or
// op in flight, an empty store buffer, the program counter at the code
// base and zero counters. It keeps an idle thread slot; a slot whose
// thread had not finished is aborted and dropped.
func (c *Core) Reset() {
	if c.thread != nil && !c.thread.Idle() {
		c.Abort()
	}
	c.pc = 0
	c.onExit = nil
	c.cur = prog.Op{}
	c.loadToken = 0
	clear(c.sb)
	c.sb = c.sb[:0]
	c.sbDraining = false
	c.afterDrain, c.afterPop = nil, nil
	c.Stats = Stats{}
}

// Run starts fn as thread id on the core's thread slot, making the
// slot on first use; onExit fires once fn has returned and the store
// buffer has drained.
func (c *Core) Run(id int, fn func(*prog.CPUThread), onExit func()) {
	if c.thread == nil {
		c.thread = prog.NewCPUThread()
	}
	c.thread.Start(id, fn)
	c.onExit = onExit
	c.engine.Post(0, c, cpuKindStep, 0, nil)
}

// Abort stops the core's thread slot, unwinding a thread suspended in
// an op, and drops it; the next Run makes a new one. A run's teardown
// calls it: an idle slot parks between threads, and a run that ends
// early leaves its thread suspended mid-op. Idempotent.
func (c *Core) Abort() {
	if c.thread != nil {
		c.thread.Abort()
		c.thread = nil
	}
}

func line(a memdata.Addr) cachearray.LineAddr { return cachearray.LineAddr(a >> 6) }

// Core event kinds (sim.Handler dispatch): compute ops, store-buffer
// hits and kernel launches retire without allocating a closure per op.
const (
	cpuKindResume uint8 = iota // resume the thread with the value in arg
	cpuKindLaunch              // launch latency elapsed: hand cur's kernel to the GPU
	cpuKindStep                // Run's first step: fetch the thread's first op
)

// OnEvent implements sim.Handler.
func (c *Core) OnEvent(kind uint8, arg uint64, obj any) {
	switch kind {
	case cpuKindStep:
		c.step()
		return
	case cpuKindLaunch:
		c.gpu.Launch(c.cur.Kernel, c.cur.Handle)
	}
	c.resume(arg)
}

func (c *Core) step() {
	op, ok := c.thread.NextOp()
	if !ok {
		// Drain buffered stores before retiring the thread.
		c.whenDrained(c.onExit)
		return
	}
	c.Stats.Ops++
	c.cur = op
	c.fetchThen(c.cb.execCur)
}

// whenDrained runs fn once the store buffer is empty.
func (c *Core) whenDrained(fn func()) {
	if len(c.sb) == 0 {
		fn()
		return
	}
	c.afterDrain = fn
}

// drain writes buffered stores back in FIFO order, one at a time.
func (c *Core) drain() {
	if len(c.sb) == 0 {
		c.sbDraining = false
		if fn := c.afterDrain; fn != nil {
			c.afterDrain = nil
			fn()
		}
		return
	}
	c.sbDraining = true
	c.pair.Access(c.slot, corepair.Store, line(c.sb[0].addr), c.cb.drainDone)
}

// drainDone retires the buffer's head store, which only this callback
// removes, so it is still sb[0].
func (c *Core) drainDone() {
	s := c.sb[0]
	c.fm.Write(s.addr, s.val)
	if obs := c.cfg.Observer; obs != nil {
		obs.StoreRetired(c.pair.NodeID(), line(s.addr))
	}
	c.sb = c.sb[:copy(c.sb, c.sb[1:])] // keep the backing array: no reallocation
	if fn := c.afterPop; fn != nil {
		c.afterPop = nil
		fn()
	}
	c.drain()
}

// whenDrainedBelow runs fn once the buffer has fewer than n entries.
func (c *Core) whenDrainedBelow(n int, fn func()) {
	if len(c.sb) < n {
		fn()
		return
	}
	c.afterPop = fn
}

// fetchThen models the instruction stream: the program counter advances
// every op within a small looping footprint; crossing into a new cache
// line costs an L1I access (an L2 RdBlkS on cold misses).
func (c *Core) fetchThen(then func()) {
	prev := c.pc / 64
	c.pc += c.cfg.BytesPerOp
	if c.pc >= c.cfg.CodeFootprintBytes {
		c.pc = 0
	}
	if c.pc/64 == prev {
		then()
		return
	}
	c.pair.Access(c.slot, corepair.IFetch, line(c.codeBase+memdata.Addr(c.pc)), then)
}

// execCur executes the op in flight.
func (c *Core) execCur() {
	op := &c.cur
	switch op.Kind {
	case prog.OpLoad:
		// Store-to-load forwarding: the youngest buffered store to the
		// same word supplies the value without a cache access.
		if c.cfg.StoreBufferSize > 0 {
			word := op.Addr &^ 7
			for i := len(c.sb) - 1; i >= 0; i-- {
				if c.sb[i].addr&^7 == word {
					c.Stats.StoreBufferForwards++
					c.engine.Post(1, c, cpuKindResume, c.sb[i].val, nil)
					return
				}
			}
		}
		if obs := c.cfg.Observer; obs != nil {
			c.loadToken = obs.LoadIssued(c.pair.NodeID(), line(op.Addr))
		}
		c.pair.Access(c.slot, corepair.Load, line(op.Addr), c.cb.loadDone)
	case prog.OpStore:
		if c.cfg.StoreBufferSize > 0 {
			if len(c.sb) >= c.cfg.StoreBufferSize {
				// Full: retry once the head retires.
				c.Stats.StoreBufferStalls++
				c.whenDrainedBelow(c.cfg.StoreBufferSize, c.cb.execCur)
				return
			}
			c.sb = append(c.sb, pendingStore{op.Addr, op.Value})
			if !c.sbDraining {
				c.drain()
			}
			c.engine.Post(1, c, cpuKindResume, 0, nil)
			return
		}
		c.pair.Access(c.slot, corepair.Store, line(op.Addr), c.cb.storeDone)
	case prog.OpAtomic, prog.OpLaunch, prog.OpDMA:
		// Atomics, kernel launches and DMA fence the store buffer.
		c.whenDrained(c.cb.fenced)
	case prog.OpCompute:
		d := sim.Tick(op.Cycles)
		if d == 0 {
			d = 1
		}
		c.engine.Post(d, c, cpuKindResume, 0, nil)
	case prog.OpWait:
		op.Handle.OnDone(c.cb.resumeZero)
	}
}

// fenced issues the op in flight once the store buffer is empty.
func (c *Core) fenced() {
	op := &c.cur
	switch op.Kind {
	case prog.OpAtomic:
		// CPU atomics serialize at ownership: the RMW applies once the
		// line is held Modified.
		c.pair.Access(c.slot, corepair.RMW, line(op.Addr), c.cb.rmwDone)
	case prog.OpLaunch:
		c.engine.Post(c.cfg.LaunchLatency, c, cpuKindLaunch, 0, nil)
	case prog.OpDMA:
		c.dma.Stream(uint64(op.Addr), op.DMABytes, op.DMAWrite, 8, c.cb.resumeZero)
	}
}

func (c *Core) loadDone() {
	if obs := c.cfg.Observer; obs != nil {
		obs.LoadRetired(c.pair.NodeID(), line(c.cur.Addr), c.loadToken)
	}
	c.resume(c.fm.Read(c.cur.Addr))
}

func (c *Core) storeDone() {
	c.fm.Write(c.cur.Addr, c.cur.Value)
	if obs := c.cfg.Observer; obs != nil {
		obs.StoreRetired(c.pair.NodeID(), line(c.cur.Addr))
	}
	c.resume(0)
}

func (c *Core) rmwDone() {
	op := &c.cur
	old := c.fm.RMW(op.Addr, op.AOp, op.Value, op.Compare)
	if obs := c.cfg.Observer; obs != nil {
		obs.StoreRetired(c.pair.NodeID(), line(op.Addr))
	}
	c.resume(old)
}

func (c *Core) resumeZero() { c.resume(0) }

func (c *Core) resume(v uint64) {
	c.thread.Complete(v)
	c.step()
}
