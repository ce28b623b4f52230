// Package gpucache implements the GPU cache hierarchy of the simulated
// APU (§II-C): per-CU Texture Caches per Pipe (TCP, the GPU L1s), the
// shared Texture Cache per Channel (TCC, the GPU L2) and the Sequencer
// (instruction) Cache, all running the VIPER VI-like protocol.
//
// Per the paper: the TCC never forwards modified data when probed but
// does invalidate itself; system-scope (SLC) requests bypass the TCC
// (making it non-inclusive); device-scope (GLC) atomics execute at the
// TCC; TCP and TCC are write-through, and the TCC has an optional
// write-back configuration (WB_L2).
package gpucache

import (
	"fmt"

	"hscsim/internal/cachearray"
	"hscsim/internal/fsm"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/recycle"
	"hscsim/internal/sim"
)

// machine names the TCC's VIPER state machine in the transition tables
// extracted by internal/proto. States: I (absent), V (valid clean),
// D (valid dirty, WB_L2 only); "-" marks state-independent FIFO events.
const machine = "gpu.tcc"

// tccState renders a TCC line's VIPER state for transition recording.
func tccState(m *tccMeta) string {
	if m == nil {
		return "I"
	}
	if m.Dirty {
		return "D"
	}
	return "V"
}

// Config sizes the GPU caches (Table II; latencies converted to CPU
// ticks, the GPU running at 1.1 GHz vs the CPU's 3.5 GHz).
type Config struct {
	// NumTCCs banks the shared TCC by address (Table III configures 1;
	// the protocol supports several — the paper's "TCC(s)").
	NumTCCs int

	TCPSizeBytes int // 16 KB, 16-way
	TCPAssoc     int
	TCCSizeBytes int // 256 KB, 16-way
	TCCAssoc     int
	SQCSizeBytes int // 32 KB, 8-way
	SQCAssoc     int

	TCPLatency sim.Tick
	TCCLatency sim.Tick
	SQCLatency sim.Tick

	// WriteBackL2 is the gem5 WB_L2 parameter. The default (false) is
	// write-through.
	WriteBackL2 bool
}

// DefaultConfig matches Table II/III (8 CUs; 4 / 8 / 1 GPU-cycle
// latencies ≈ 13 / 25 / 3 CPU ticks at the 3.5/1.1 clock ratio).
func DefaultConfig() Config {
	return Config{
		TCPSizeBytes: 16 << 10, TCPAssoc: 16,
		TCCSizeBytes: 256 << 10, TCCAssoc: 16,
		SQCSizeBytes: 32 << 10, SQCAssoc: 8,
		TCPLatency: 13, TCCLatency: 25, SQCLatency: 3,
	}
}

// TCCBank is the tag-array geometry of one TCC bank: the TCC capacity
// split evenly over NumTCCs banks (at least one).
func (c Config) TCCBank() cachearray.Config {
	return cachearray.Config{
		SizeBytes: c.TCCSizeBytes / max(c.NumTCCs, 1),
		Assoc:     c.TCCAssoc,
		BlockSize: cachearray.LineBytes,
	}
}

type tccMeta struct {
	Dirty bool
}

type gpuWaiter struct {
	cu   int
	done func()
}

// devAtomic is a device-scope atomic waiting out the TCC latency.
// Records come from GPUCaches.freeDevAtomics and return to it when the
// atomic executes.
type devAtomic struct {
	line             cachearray.LineAddr
	word             memdata.Addr
	op               memdata.AtomicOp
	operand, compare uint64
	done             func(old uint64)
}

// GPUCaches is the whole GPU-side cache complex; the TCC is its single
// interface to the system-level directory.
type GPUCaches struct {
	engine  *sim.Engine
	ic      noc.Fabric
	cfg     Config
	ids     []msg.NodeID // one node per TCC bank
	dirID   msg.NodeID
	funcMem *memdata.Memory

	tccs []*cachearray.Array[tccMeta] // one array per bank
	tcps []*cachearray.Array[struct{}]
	sqc  *cachearray.Array[struct{}]

	// Per-line lists recycle their backing arrays, so a steady-state
	// miss, write-through or atomic allocates nothing.
	mshr           recycle.Queues[cachearray.LineAddr, gpuWaiter]        // TCC read misses
	wtAcks         recycle.Queues[cachearray.LineAddr, func()]           // WT → WBAck FIFO
	atomics        recycle.Queues[cachearray.LineAddr, func(old uint64)] // Atomic → AtomicResp FIFO
	flushes        []func()                                              // Flush → FlushAck FIFO
	freeDevAtomics recycle.Free[devAtomic]

	// ReleaseFlush's scratch: the dirty TCC lines it writes back, and
	// the collector that ForEach fills them in with, bound once.
	dirty        []cachearray.LineAddr
	collectDirty func(cachearray.LineAddr, *tccMeta)

	// rec records fired protocol transitions for the static-vs-dynamic
	// cross-check (cmd/hscproto); nil (the default) disables recording.
	rec *fsm.Recorder

	Stats Stats
}

// Stats are the GPU cache complex's counters, summed over its banks.
type Stats struct {
	Reads          uint64 `stat:"reads"`
	Writes         uint64 `stat:"writes"`
	TCPHits        uint64 `stat:"tcp_hits"`
	TCCHits        uint64 `stat:"tcc_hits"`
	TCCMisses      uint64 `stat:"tcc_misses"`
	WriteThroughs  uint64 `stat:"write_throughs"`
	SystemAtomics  uint64 `stat:"system_atomics"`
	DeviceAtomics  uint64 `stat:"device_atomics"`
	ProbesReceived uint64 `stat:"probes_received"`
	SQCHits        uint64 `stat:"sqc_hits"`
	SQCMisses      uint64 `stat:"sqc_misses"`
}

// New creates the GPU cache complex with one TCP per compute unit.
// ids carries one interconnect node per TCC bank (len(ids) ==
// max(cfg.NumTCCs, 1)); the Table II TCC capacity is split across the
// banks.
func New(engine *sim.Engine, ic noc.Fabric, ids []msg.NodeID, dirID msg.NodeID,
	fm *memdata.Memory, cfg Config, numCUs int) *GPUCaches {
	if cfg.NumTCCs < 1 {
		cfg.NumTCCs = 1
	}
	if len(ids) != cfg.NumTCCs {
		panic(fmt.Sprintf("gpucache: %d ids for %d TCC banks", len(ids), cfg.NumTCCs))
	}
	g := &GPUCaches{
		engine:  engine,
		ic:      ic,
		cfg:     cfg,
		ids:     append([]msg.NodeID(nil), ids...),
		dirID:   dirID,
		funcMem: fm,
		sqc: cachearray.New[struct{}](cachearray.Config{
			SizeBytes: cfg.SQCSizeBytes, Assoc: cfg.SQCAssoc, BlockSize: cachearray.LineBytes}),
	}
	for b := 0; b < cfg.NumTCCs; b++ {
		g.tccs = append(g.tccs, cachearray.New[tccMeta](cfg.TCCBank()))
		ic.Register(ids[b], g)
	}
	for i := 0; i < numCUs; i++ {
		g.tcps = append(g.tcps, cachearray.New[struct{}](cachearray.Config{
			SizeBytes: cfg.TCPSizeBytes, Assoc: cfg.TCPAssoc, BlockSize: cachearray.LineBytes}))
	}
	g.collectDirty = g.appendDirty
	g.Reset()
	return g
}

// Reset returns the cache complex to its just-constructed state: empty
// TCPs, TCC banks and SQC, no miss, write-through, atomic or flush in
// flight, and zero counters. It keeps its wiring (the interconnect
// registration and the recorder) and its storage.
func (g *GPUCaches) Reset() {
	for _, arr := range g.tccs {
		arr.Reset()
	}
	for _, arr := range g.tcps {
		arr.Reset()
	}
	g.sqc.Reset()
	g.mshr.Reset()
	g.wtAcks.Reset()
	g.atomics.Reset()
	clear(g.flushes)
	g.flushes = g.flushes[:0]
	g.dirty = g.dirty[:0]
	g.Stats = Stats{}
}

// bankFor maps a line to its TCC bank (4 KB superblock interleave).
func (g *GPUCaches) bankFor(line cachearray.LineAddr) int {
	if len(g.tccs) == 1 {
		return 0
	}
	return int((uint64(line) >> 6) % uint64(len(g.tccs)))
}

func (g *GPUCaches) tccOf(line cachearray.LineAddr) *cachearray.Array[tccMeta] {
	return g.tccs[g.bankFor(line)]
}

func (g *GPUCaches) idOf(line cachearray.LineAddr) msg.NodeID {
	return g.ids[g.bankFor(line)]
}

// NodeIDs returns the TCC banks' interconnect nodes.
func (g *GPUCaches) NodeIDs() []msg.NodeID { return g.ids }

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (g *GPUCaches) SetRecorder(r *fsm.Recorder) { g.rec = r }

// ReadLine services a coalesced vector load for one cache line from a
// CU's TCP; done fires when the data is available.
func (g *GPUCaches) ReadLine(cu int, line cachearray.LineAddr, done func()) {
	g.Stats.Reads++
	tcp := g.tcps[cu]
	if tcp.Lookup(line) != nil {
		g.Stats.TCPHits++
		g.engine.Post(g.cfg.TCPLatency, g, gpuKindDone, 0, done)
		return
	}
	g.engine.Post(g.cfg.TCPLatency, g, gpuKindTCCRead, packCULine(cu, line), done)
}

// GPUCaches event kinds (sim.Handler dispatch). The vector read/write
// paths are the GPU's hot loops, so their TCP→TCC hops carry (kind,
// arg, obj) instead of allocating closures. A line address is a byte
// address >> 6, so its top 8 bits are free to carry the CU index.
const (
	gpuKindTCCRead   uint8 = iota // arg: cu<<56|line, obj: done func()
	gpuKindTCCWrite               // arg: line, obj: done func()
	gpuKindDevAtomic              // obj: *devAtomic
	gpuKindDone                   // a hit's latency elapsed (obj: done func())
)

func packCULine(cu int, line cachearray.LineAddr) uint64 {
	return uint64(cu)<<56 | uint64(line)
}

// OnEvent implements sim.Handler for the GPU cache complex's events.
func (g *GPUCaches) OnEvent(kind uint8, arg uint64, obj any) {
	switch kind {
	case gpuKindTCCRead:
		g.tccRead(int(arg>>56), cachearray.LineAddr(arg&(1<<56-1)), obj.(func()))
	case gpuKindTCCWrite:
		g.tccWrite(cachearray.LineAddr(arg), obj.(func()))
	case gpuKindDevAtomic:
		g.deviceAtomic(obj.(*devAtomic))
	case gpuKindDone:
		obj.(func())()
	}
}

func (g *GPUCaches) tccRead(cu int, line cachearray.LineAddr, done func()) {
	if m := g.tccOf(line).Lookup(line); m != nil {
		g.rec.Record(machine, tccState(m), "Rd", tccState(m)) //proto:states V,D //proto:next V,D //proto:actions serve from TCC
		g.Stats.TCCHits++
		g.tcps[cu].Insert(line, nil)
		g.engine.Post(g.cfg.TCCLatency, g, gpuKindDone, 0, done)
		return
	}
	g.rec.Record(machine, "I", "Rd", "I") //proto:actions issue RdBlk (or join MSHR) //proto:emits RdBlk
	g.Stats.TCCMisses++
	if !g.mshr.Push(line, gpuWaiter{cu, done}) {
		return // joined the outstanding miss
	}
	g.ic.SendAfter(g.cfg.TCCLatency, msg.Message{Type: msg.RdBlk, Addr: line, Src: g.idOf(line), Dst: g.dirID})
}

// WriteLine services a coalesced vector store for one line. In the
// default write-through configuration every store issues a WT to the
// directory for system-level visibility; in WB_L2 mode the TCC buffers
// the dirty line and writes it back on eviction or flush.
func (g *GPUCaches) WriteLine(cu int, line cachearray.LineAddr, done func()) {
	g.Stats.Writes++
	if tcp := g.tcps[cu]; tcp.Peek(line) != nil {
		tcp.Lookup(line) // write-through updates a present copy
	}
	g.engine.Post(g.cfg.TCPLatency, g, gpuKindTCCWrite, uint64(line), done)
}

func (g *GPUCaches) tccWrite(line cachearray.LineAddr, done func()) {
	if g.cfg.WriteBackL2 {
		if m := g.tccOf(line).Lookup(line); m != nil {
			g.rec.Record(machine, tccState(m), "Wr", "D") //proto:states V,D //proto:actions mark dirty (WB_L2)
			m.Dirty = true
		} else {
			g.rec.Record(machine, "I", "Wr", "D") //proto:actions allocate dirty (WB_L2)
			g.insertTCC(line, true)
		}
		g.engine.Post(g.cfg.TCCLatency, g, gpuKindDone, 0, done)
		return
	}
	// Write-through: the TCC keeps/updates a valid copy and forwards the
	// write to the directory.
	if g.tccOf(line).Peek(line) == nil {
		g.rec.Record(machine, "I", "Wr", "V") //proto:actions allocate, send WT //proto:emits WT
		g.insertTCC(line, false)
	} else {
		g.rec.Record(machine, "V", "Wr", "V") //proto:actions update copy, send WT //proto:emits WT
	}
	g.sendWT(line, true, done)
}

func (g *GPUCaches) sendWT(line cachearray.LineAddr, retain bool, done func()) {
	g.Stats.WriteThroughs++
	if done == nil {
		done = func() {}
	}
	g.wtAcks.Push(line, done)
	g.ic.SendAfter(g.cfg.TCCLatency, msg.Message{Type: msg.WT, Addr: line, Src: g.idOf(line), Dst: g.dirID, Retain: retain})
}

// insertTCC allocates (or refreshes) a TCC line, writing back a
// displaced dirty line. A resident line keeps its dirty bit: a fill
// must not clobber a write that landed while the miss was in flight.
func (g *GPUCaches) insertTCC(line cachearray.LineAddr, dirty bool) {
	arr := g.tccOf(line)
	if m := arr.Lookup(line); m != nil {
		m.Dirty = m.Dirty || dirty
		return
	}
	m, evTag, evMeta, evicted := arr.Insert(line, nil)
	m.Dirty = dirty
	if evicted && evMeta.Dirty {
		g.rec.Record(machine, "D", "Evict", "I") //proto:actions write back victim (WT) //proto:emits WT
		g.sendWT(evTag, false, nil)
	} else if evicted {
		g.rec.Record(machine, "V", "Evict", "I") //proto:actions drop clean victim silently
	}
}

// AtomicSystem executes a system-scope (SLC) atomic: bypassed through
// the TCC to the directory, which performs the RMW at system visibility.
// Local copies are dropped so later reads observe the result.
func (g *GPUCaches) AtomicSystem(cu int, line cachearray.LineAddr, word memdata.Addr,
	op memdata.AtomicOp, operand, compare uint64, done func(old uint64)) {
	g.Stats.SystemAtomics++
	g.tcps[cu].Invalidate(line)
	if meta, ok := g.tccOf(line).Invalidate(line); ok && meta.Dirty {
		g.rec.Record(machine, "D", "AtomicSys", "I") //proto:actions flush dirty copy (WT), issue Atomic //proto:emits Atomic,WT
		g.sendWT(line, false, nil)
	} else if ok {
		g.rec.Record(machine, "V", "AtomicSys", "I") //proto:actions drop copy, issue Atomic //proto:emits Atomic
	} else {
		g.rec.Record(machine, "I", "AtomicSys", "I") //proto:actions issue Atomic (bypass) //proto:emits Atomic
	}
	g.atomics.Push(line, done)
	g.ic.SendAfter(g.cfg.TCCLatency, msg.Message{Type: msg.Atomic, Addr: line, Src: g.idOf(line), Dst: g.dirID,
		AOp: op, WordAddr: word, Operand: operand, Compare: compare})
}

// AtomicDevice executes a device-scope (GLC) atomic at the TCC (GPU
// visibility). In write-through mode the result is forwarded to the
// directory as a WT; in write-back mode the line turns dirty.
func (g *GPUCaches) AtomicDevice(cu int, line cachearray.LineAddr, word memdata.Addr,
	op memdata.AtomicOp, operand, compare uint64, done func(old uint64)) {
	g.Stats.DeviceAtomics++
	g.tcps[cu].Invalidate(line)
	a := g.freeDevAtomics.Get()
	*a = devAtomic{line: line, word: word, op: op, operand: operand, compare: compare, done: done}
	g.engine.Post(g.cfg.TCCLatency, g, gpuKindDevAtomic, 0, a)
}

// deviceAtomic executes a device-scope atomic once its TCC latency has
// elapsed, releasing its record first.
func (g *GPUCaches) deviceAtomic(rec *devAtomic) {
	a := *rec
	*rec = devAtomic{}
	g.freeDevAtomics.Put(rec)
	line := a.line
	old := g.funcMem.RMW(a.word, a.op, a.operand, a.compare)
	if g.cfg.WriteBackL2 {
		if m := g.tccOf(line).Lookup(line); m != nil {
			g.rec.Record(machine, tccState(m), "AtomicDev", "D") //proto:states V,D //proto:actions RMW at TCC, mark dirty
			m.Dirty = true
		} else {
			g.rec.Record(machine, "I", "AtomicDev", "D") //proto:actions RMW at TCC, allocate dirty
			g.insertTCC(line, true)
		}
	} else {
		if g.tccOf(line).Peek(line) == nil {
			g.rec.Record(machine, "I", "AtomicDev", "V") //proto:actions RMW at TCC, allocate, send WT //proto:emits WT
			g.insertTCC(line, false)
		} else {
			g.rec.Record(machine, "V", "AtomicDev", "V") //proto:actions RMW at TCC, send WT //proto:emits WT
		}
		g.sendWT(line, true, nil)
	}
	a.done(old)
}

// IFetch services a wavefront instruction fetch through the SQC.
func (g *GPUCaches) IFetch(cu int, line cachearray.LineAddr, done func()) {
	if g.sqc.Lookup(line) != nil {
		g.Stats.SQCHits++
		g.engine.Post(g.cfg.SQCLatency, g, gpuKindDone, 0, done)
		return
	}
	g.Stats.SQCMisses++
	g.sqc.Insert(line, nil)
	g.engine.Post(g.cfg.SQCLatency, g, gpuKindTCCRead, packCULine(0, line), done)
}

// AcquireInvalidate drops all TCP lines of a CU (kernel-launch /
// barrier-acquire semantics of the VIPER model).
func (g *GPUCaches) AcquireInvalidate(cu int) {
	g.tcps[cu].Clear()
}

// ReleaseFlush writes back every dirty TCC line (WB_L2 mode) and sends
// the Flush marker the paper lists among TCC requests; done fires when
// the directory acknowledges.
func (g *GPUCaches) ReleaseFlush(done func()) {
	if g.cfg.WriteBackL2 {
		// Bank order, then set/way order within a bank.
		g.dirty = g.dirty[:0]
		for _, arr := range g.tccs {
			arr.ForEach(g.collectDirty)
		}
		for _, a := range g.dirty {
			g.rec.Record(machine, "D", "FlushWB", "V") //proto:actions write back dirty line at release //proto:emits WT
			if m := g.tccOf(a).Peek(a); m != nil {
				m.Dirty = false
			}
			g.sendWT(a, true, nil)
		}
	}
	g.flushes = append(g.flushes, done)
	g.rec.Record(machine, "-", "Release", "-") //proto:actions send the release fence //proto:emits Flush
	g.ic.Send(msg.Message{Type: msg.Flush, Addr: 0, Src: g.ids[0], Dst: g.dirID})
}

// appendDirty is ReleaseFlush's ForEach collector.
func (g *GPUCaches) appendDirty(a cachearray.LineAddr, m *tccMeta) {
	if m.Dirty {
		g.dirty = append(g.dirty, a)
	}
}

// Receive implements noc.Handler.
func (g *GPUCaches) Receive(m msg.Message) {
	switch m.Type {
	case msg.Resp:
		ws := g.mshr.Take(m.Addr)
		if ws == nil {
			panic(fmt.Sprintf("gpucache: fill without MSHR %s", m))
		}
		// A copy that landed while the miss was in flight (WT insert or
		// WB_L2 write) absorbs the fill and keeps its dirty bit.
		before := tccState(g.tccOf(m.Addr).Peek(m.Addr))
		g.insertTCC(m.Addr, false)
		g.rec.Record(machine, before, "Fill", tccState(g.tccOf(m.Addr).Peek(m.Addr))) //proto:states I,V,D //proto:next V,V,D //proto:actions install fill, wake waiters //proto:consumes Resp
		for _, w := range ws {
			g.tcps[w.cu].Insert(m.Addr, nil)
			w.done()
		}
		// Only now: a waiter may open a new miss on this line.
		g.mshr.Recycle(ws)

	case msg.WBAck:
		g.rec.Record(machine, "-", "WBAck", "-") //proto:actions retire oldest WT on the line
		done, ok := g.wtAcks.Pop(m.Addr)
		if !ok {
			panic(fmt.Sprintf("gpucache: stray WBAck %s", m))
		}
		done()

	case msg.AtomicResp:
		g.rec.Record(machine, "-", "AtomicResp", "-") //proto:actions deliver old value to waiter
		done, ok := g.atomics.Pop(m.Addr)
		if !ok {
			panic(fmt.Sprintf("gpucache: stray AtomicResp %s", m))
		}
		done(m.Old)

	case msg.FlushAck:
		g.rec.Record(machine, "-", "FlushAck", "-") //proto:actions complete release flush
		done := g.flushes[0]
		g.flushes = g.flushes[:copy(g.flushes, g.flushes[1:])]
		done()

	case msg.PrbInv:
		// The TCC invalidates itself and never forwards data (§II-C).
		g.Stats.ProbesReceived++
		if meta, ok := g.tccOf(m.Addr).Invalidate(m.Addr); ok && meta.Dirty {
			// A dirty WB-mode line is lost to the probe; VIPER relies on
			// the write-through of its data having system visibility, so
			// flush it on the way out.
			g.rec.Record(machine, "D", "PrbInv", "I") //proto:actions flush dirty copy (WT), ack //proto:emits PrbAck,WT
			g.sendWT(m.Addr, false, nil)
		} else if ok {
			g.rec.Record(machine, "V", "PrbInv", "I") //proto:actions drop copy, ack //proto:emits PrbAck
		} else {
			g.rec.Record(machine, "I", "PrbInv", "I") //proto:actions ack without data //proto:emits PrbAck
		}
		g.ic.Send(msg.Message{Type: msg.PrbAck, Addr: m.Addr, Src: g.idOf(m.Addr), Dst: m.Src, TxnID: m.TxnID})

	default:
		panic(fmt.Sprintf("gpucache: unexpected %s", m))
	}
}

// TCCHas reports whether the owning TCC bank holds a line (test hook).
func (g *GPUCaches) TCCHas(line cachearray.LineAddr) bool { return g.tccOf(line).Peek(line) != nil }

// TCCDirty reports whether the owning TCC bank holds line dirty
// (WB_L2 mode; checker hook).
func (g *GPUCaches) TCCDirty(line cachearray.LineAddr) bool {
	m := g.tccOf(line).Peek(line)
	return m != nil && m.Dirty
}

// PendingLine reports the per-line in-flight transaction counts
// (checker fingerprint hook): read-miss waiters, unacknowledged
// write-throughs, and outstanding atomics.
func (g *GPUCaches) PendingLine(line cachearray.LineAddr) (mshrWaiters, wts, atomics int) {
	return len(g.mshr.At(line)), len(g.wtAcks.At(line)), len(g.atomics.At(line))
}

// Outstanding reports in-flight TCC transactions (quiesce checks).
func (g *GPUCaches) Outstanding() int {
	return g.mshr.Len() + g.wtAcks.Len() + g.atomics.Len() + len(g.flushes)
}
