// Package corepair implements the CPU cache subsystem of the simulated
// APU (§II-B): two cores sharing a context-sensitive L1 instruction
// cache, with dedicated L1 data caches, all backed by a shared inclusive
// L2 implementing the MOESI protocol. The L2 is the CorePair's interface
// to the system-level directory.
package corepair

import (
	"fmt"

	"hscsim/internal/cachearray"
	"hscsim/internal/fsm"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/recycle"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// machine names the L2's coherence state machine in the transition
// tables extracted by internal/proto; the "WB" pseudo-state is the
// victim buffer (line evicted, WBAck outstanding).
const machine = "cpu.l2"

// MOESI is the CPU cache-line state.
type MOESI uint8

// MOESI states.
const (
	Invalid MOESI = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s MOESI) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "I"
}

func (s MOESI) dirty() bool { return s == Modified || s == Owned }

// AccessKind classifies a core's memory access.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
	IFetch
	RMW // atomic read-modify-write: requires Modified, like Store
)

func (k AccessKind) needsWrite() bool { return k == Store || k == RMW }

// event maps the access kind onto the two transition-table events: an
// IFetch is a Load for coherence purposes, an RMW a Store.
func (k AccessKind) event() string {
	if k.needsWrite() {
		return "Store"
	}
	return "Load"
}

// Config sizes the CorePair caches (Table II).
type Config struct {
	L1ISizeBytes int // 32 KB, 2-way
	L1IAssoc     int
	L1DSizeBytes int // 64 KB, 2-way
	L1DAssoc     int
	L2SizeBytes  int // 2 MB, 8-way
	L2Assoc      int

	L1Latency sim.Tick // 1 cy
	L2Latency sim.Tick // L2 lookup
}

// DefaultConfig matches Table II.
func DefaultConfig() Config {
	return Config{
		L1ISizeBytes: 32 << 10, L1IAssoc: 2,
		L1DSizeBytes: 64 << 10, L1DAssoc: 2,
		L2SizeBytes: 2 << 20, L2Assoc: 8,
		L1Latency: 1, L2Latency: 4,
	}
}

type l2Meta struct {
	State MOESI
}

type waiter struct {
	core int
	kind AccessKind
	done func()
}

// mshrEntry is one outstanding L2 miss; its accesses wait in
// CorePair.mshrWait.
type mshrEntry struct {
	issued sim.Tick
	typ    msg.Type // the request in flight (RdBlk/RdBlkS/RdBlkM)
}

// Cores is the number of CPU cores in a CorePair, each with its own
// L1D in front of the shared L2.
const Cores = 2

// CorePair is the two-core CPU cluster cache subsystem.
type CorePair struct {
	engine *sim.Engine
	ic     noc.Fabric
	cfg    Config
	id     msg.NodeID // the L2's node on the interconnect
	dirID  msg.NodeID

	l2  *cachearray.Array[l2Meta]
	l1d [Cores]*cachearray.Array[struct{}]
	l1i *cachearray.Array[struct{}]

	// Per-line queues recycle their backing arrays, so a steady-state
	// miss, writeback stall or deferred probe allocates nothing.
	mshr     recycle.Table[cachearray.LineAddr, mshrEntry]
	mshrWait recycle.Queues[cachearray.LineAddr, waiter] // accesses replayed by fill
	wb       recycle.Table[cachearray.LineAddr, bool]    // victim buffer: line → dirty
	wbWait   recycle.Queues[cachearray.LineAddr, waiter] // accesses stalled on an outstanding writeback

	// pendingStores counts store/RMW hits whose completion callback is
	// still in flight (the L1-latency commit window); probeWait holds
	// probes deferred until those drain. A probe processed inside the
	// window would snapshot and downgrade the line before the store it
	// already hit on commits — the store would then retire into an
	// Owned/Shared line and the probe's data forward would miss it
	// (stale data at the requester). Real L2s serialize probes against
	// the store pipeline the same way; the deferral is bounded by the
	// fixed L1 latency, so it cannot deadlock.
	pendingStores recycle.Table[cachearray.LineAddr, int]
	probeWait     recycle.Queues[cachearray.LineAddr, msg.Message]

	// rec records fired protocol transitions for the static-vs-dynamic
	// cross-check (cmd/hscproto); nil (the default) disables recording.
	rec *fsm.Recorder

	Stats Stats
}

// Stats are the CorePair's counters and its L2 miss-latency histogram.
type Stats struct {
	Loads          uint64          `stat:"loads"`
	Stores         uint64          `stat:"stores"`
	L1Hits         uint64          `stat:"l1_hits"`
	L2Hits         uint64          `stat:"l2_hits"`
	L2Misses       uint64          `stat:"l2_misses"`
	Upgrades       uint64          `stat:"upgrades"`
	VicClean       uint64          `stat:"vic_clean"`
	VicDirty       uint64          `stat:"vic_dirty"`
	ProbesReceived uint64          `stat:"probes_received"`
	ProbeHits      uint64          `stat:"probe_hits"`
	WBStalls       uint64          `stat:"wb_stalls"`
	MissLatency    stats.Histogram `stat:"miss_latency"`
}

// New creates a CorePair attached to the interconnect at node id.
func New(engine *sim.Engine, ic noc.Fabric, id, dirID msg.NodeID, cfg Config) *CorePair {
	cp := &CorePair{
		engine: engine,
		ic:     ic,
		cfg:    cfg,
		id:     id,
		dirID:  dirID,
		l2: cachearray.New[l2Meta](cachearray.Config{
			SizeBytes: cfg.L2SizeBytes, Assoc: cfg.L2Assoc, BlockSize: cachearray.LineBytes}),
		l1i: cachearray.New[struct{}](cachearray.Config{
			SizeBytes: cfg.L1ISizeBytes, Assoc: cfg.L1IAssoc, BlockSize: cachearray.LineBytes}),
	}
	for i := range cp.l1d {
		cp.l1d[i] = cachearray.New[struct{}](cachearray.Config{
			SizeBytes: cfg.L1DSizeBytes, Assoc: cfg.L1DAssoc, BlockSize: cachearray.LineBytes})
	}
	ic.Register(id, cp)
	return cp
}

// NodeID returns the CorePair's interconnect node.
func (cp *CorePair) NodeID() msg.NodeID { return cp.id }

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (cp *CorePair) SetRecorder(r *fsm.Recorder) { cp.rec = r }

func (cp *CorePair) l1For(core int, kind AccessKind) *cachearray.Array[struct{}] {
	if kind == IFetch {
		return cp.l1i
	}
	return cp.l1d[core]
}

// Access performs one line-granular access for a core; done fires when
// the access has obtained sufficient permission (timing only — the
// functional value lives in memdata and is read/written by the core).
func (cp *CorePair) Access(core int, kind AccessKind, line cachearray.LineAddr, done func()) {
	if kind.needsWrite() {
		cp.Stats.Stores++
	} else {
		cp.Stats.Loads++
	}
	cp.access(core, kind, line, done)
}

// access is Access without demand counting (used to replay waiters).
func (cp *CorePair) access(core int, kind AccessKind, line cachearray.LineAddr, done func()) {
	l1 := cp.l1For(core, kind)
	meta := cp.l2.Lookup(line)

	if meta != nil {
		st := meta.State
		if !kind.needsWrite() {
			cp.rec.Record(machine, st.String(), "Load", st.String()) //proto:states S,E,O,M //proto:next S,E,O,M //proto:actions serve from L1/L2
			if l1.Lookup(line) != nil {
				cp.Stats.L1Hits++
				cp.engine.Post(cp.cfg.L1Latency, cp, cpKindDone, 0, done)
				return
			}
			cp.Stats.L2Hits++
			l1.Insert(line, nil)
			cp.engine.Post(cp.cfg.L2Latency, cp, cpKindDone, 0, done)
			return
		}
		switch st {
		case Modified:
			cp.rec.Record(machine, "M", "Store", "M") //proto:actions commit in place
			cp.Stats.L2Hits++
			l1.Insert(line, nil)
			cp.openStoreCommit(line, done)
			return
		case Exclusive:
			// Silent E→M: the directory is not informed (§II-B).
			cp.rec.Record(machine, "E", "Store", "M") //proto:actions silent upgrade
			meta.State = Modified
			cp.Stats.L2Hits++
			l1.Insert(line, nil)
			cp.openStoreCommit(line, done)
			return
		default:
			// Store to S or O: upgrade via RdBlkM.
			cp.rec.Record(machine, st.String(), "Store", st.String()) //proto:states S,O //proto:next S,O //proto:actions issue RdBlkM upgrade //proto:emits RdBlkM
			cp.Stats.Upgrades++
			cp.miss(line, msg.RdBlkM, waiter{core, kind, done})
			return
		}
	}
	if cp.wb.Find(line) != nil {
		// The line sits in the victim buffer awaiting its WBAck.
		// Re-acquiring it now would leave two live copies — a probe
		// crossing the window would be answered from the stale victim
		// while the refetched L2 copy kept its grant, breaking SWMR.
		// Stall until the writeback acknowledgment retires the victim.
		cp.rec.Record(machine, "WB", kind.event(), "WB") //proto:events Load,Store //proto:actions stall until WBAck
		cp.Stats.WBStalls++
		cp.wbWait.Push(line, waiter{core, kind, done})
		return
	}
	cp.rec.Record(machine, "I", kind.event(), "I") //proto:events Load,Store //proto:actions issue RdBlk/RdBlkS/RdBlkM //proto:emits RdBlk,RdBlkS,RdBlkM
	cp.Stats.L2Misses++
	var t msg.Type
	switch {
	case kind.needsWrite():
		t = msg.RdBlkM
	case kind == IFetch:
		t = msg.RdBlkS
	default:
		t = msg.RdBlk
	}
	cp.miss(line, t, waiter{core, kind, done})
}

// miss allocates (or joins) an MSHR entry and issues the request.
func (cp *CorePair) miss(line cachearray.LineAddr, t msg.Type, w waiter) {
	if !cp.mshrWait.Push(line, w) {
		return // joined the outstanding miss
	}
	*cp.mshr.Put(line) = mshrEntry{issued: cp.engine.Now(), typ: t}
	cp.ic.SendAfter(cp.cfg.L2Latency, msg.Message{Type: t, Addr: line, Src: cp.id, Dst: cp.dirID})
}

// CorePair event kinds (sim.Handler dispatch); obj is the access's
// done func().
const (
	cpKindStoreCommit uint8 = iota // a store's commit window closes (arg: line)
	cpKindDone                     // a load hit's L1/L2 latency elapsed
)

// OnEvent implements sim.Handler for the CorePair's scheduled work.
func (cp *CorePair) OnEvent(kind uint8, arg uint64, obj any) {
	if kind == cpKindDone {
		obj.(func())()
		return
	}
	cp.storeCommitDone(cachearray.LineAddr(arg), obj.(func()))
}

// Receive implements noc.Handler. Probes that arrive inside a store
// commit window are kept in probeWait until the commit drains.
func (cp *CorePair) Receive(m msg.Message) {
	switch m.Type {
	case msg.Resp:
		cp.fill(&m)
	case msg.WBAck:
		cp.rec.Record(machine, "WB", "WBAck", "I") //proto:actions retire victim, replay stalled accesses
		cp.wb.Delete(m.Addr)
		ws := cp.wbWait.Take(m.Addr)
		for _, w := range ws {
			cp.access(w.core, w.kind, m.Addr, w.done)
		}
		cp.wbWait.Recycle(ws)
	case msg.PrbInv, msg.PrbDowngrade:
		cp.probe(&m)
	default:
		panic(fmt.Sprintf("corepair: unexpected %s", m))
	}
}

// fill installs a granted line and replays the waiting accesses.
func (cp *CorePair) fill(m *msg.Message) {
	e, ok := cp.mshr.Get(m.Addr)
	if !ok {
		panic(fmt.Sprintf("corepair %d: fill without MSHR: %s", cp.id, *m))
	}
	cp.mshr.Delete(m.Addr)
	cp.Stats.MissLatency.Observe(uint64(cp.engine.Now() - e.issued))

	var st MOESI
	switch m.Grant {
	case msg.GrantM:
		st = Modified
	case msg.GrantE:
		st = Exclusive
	default:
		st = Shared
	}
	if existing := cp.l2.Lookup(m.Addr); existing != nil {
		// Upgrade response for a line already resident (S/O → M).
		cp.rec.Record(machine, existing.State.String(), "Fill", st.String()) //proto:states S,O //proto:next M //proto:actions install upgrade grant //proto:consumes Resp //proto:emits Unblock
		existing.State = st
	} else {
		cp.rec.Record(machine, "I", "Fill", st.String()) //proto:next S,E,M //proto:actions install grant, send Unblock //proto:consumes Resp //proto:emits Unblock
		// Pin lines with an outstanding miss: victimizing a line whose
		// upgrade RdBlkM is still in flight would let the late fill
		// install Modified next to the line's own live victim-buffer
		// entry — a stale copy that answers probes after the upgrade
		// grant lands (SWMR breaks). The MSHR entry for m.Addr itself was
		// deleted above, so this fill never pins its own way.
		meta, evTag, evMeta, evicted := cp.l2.Insert(m.Addr, func(tag cachearray.LineAddr, _ *l2Meta) bool {
			return cp.mshr.Find(tag) != nil
		})
		meta.State = st
		if evicted {
			if cp.mshr.Find(evTag) != nil {
				panic(fmt.Sprintf("corepair %d: evicted line %#x with miss in flight (all ways pinned?)", cp.id, evTag))
			}
			cp.victimize(evTag, evMeta.State)
		}
	}
	// End of the coherence transaction at the directory (reply to the
	// responding bank: the directory may be distributed, §VII).
	cp.ic.Send(msg.Message{Type: msg.Unblock, Addr: m.Addr, Src: cp.id, Dst: m.Src, TxnID: m.TxnID})

	ws := cp.mshrWait.Take(m.Addr)
	for _, w := range ws {
		// Replay: hits now, or triggers a further upgrade.
		cp.access(w.core, w.kind, m.Addr, w.done)
	}
	// Recycle ws only now: a replay can open a new miss on this line,
	// which starts a fresh queue because Take emptied this one.
	cp.mshrWait.Recycle(ws)
}

// victimize writes back an evicted L2 line (noisy evictions: clean
// victims are sent too, §II-D) and drops the L1 copies (inclusion).
func (cp *CorePair) victimize(line cachearray.LineAddr, st MOESI) {
	cp.rec.Record(machine, st.String(), "Evict", "WB") //proto:states S,E,O,M //proto:actions send VicClean/VicDirty //proto:emits VicClean,VicDirty
	cp.invalidateL1s(line)
	t := msg.VicClean
	if st.dirty() {
		t = msg.VicDirty
		cp.Stats.VicDirty++
	} else {
		cp.Stats.VicClean++
	}
	*cp.wb.Put(line) = st.dirty()
	cp.ic.Send(msg.Message{Type: t, Addr: line, Src: cp.id, Dst: cp.dirID})
}

func (cp *CorePair) invalidateL1s(line cachearray.LineAddr) {
	cp.l1i.Invalidate(line)
	for _, l1 := range cp.l1d {
		l1.Invalidate(line)
	}
}

// openStoreCommit opens a line's store-commit window: probes delivered
// before the scheduled completion runs are deferred, and replayed (in
// arrival order) once every pending store on the line has committed.
// The completion is a dispatch-form event (cpKindStoreCommit), so a
// store hit schedules nothing but the pooled event itself.
func (cp *CorePair) openStoreCommit(line cachearray.LineAddr, done func()) {
	*cp.pendingStores.Put(line)++
	cp.engine.Post(cp.cfg.L1Latency, cp, cpKindStoreCommit, uint64(line), done)
}

// storeCommitDone closes one store's commit window and replays probes
// deferred behind it.
func (cp *CorePair) storeCommitDone(line cachearray.LineAddr, done func()) {
	done()
	if n := cp.pendingStores.Find(line); *n > 1 {
		*n--
		return
	}
	cp.pendingStores.Delete(line)
	deferred := cp.probeWait.Take(line)
	for i := range deferred {
		// If done() reopened the commit window, the probe re-defers.
		cp.probe(&deferred[i])
	}
	cp.probeWait.Recycle(deferred)
}

// probe services a directory probe: acknowledge with data when the line
// is held (or sits in the victim buffer awaiting its WBAck), downgrading
// or invalidating as requested. A probe that arrives inside a store
// commit window waits in probeWait until the window closes.
func (cp *CorePair) probe(m *msg.Message) {
	if cp.pendingStores.Find(m.Addr) != nil {
		// A store hit on this line is inside its commit window; answer
		// after it retires so the acknowledgment carries its data.
		cp.probeWait.Push(m.Addr, *m)
		return
	}
	cp.Stats.ProbesReceived++
	ack := msg.Message{Type: msg.PrbAck, Addr: m.Addr, Src: cp.id, Dst: m.Src, TxnID: m.TxnID}

	if dirty, inWB := cp.wb.Get(m.Addr); inWB {
		// The victim crossed this probe in flight: supply from the
		// victim buffer.
		cp.rec.Record(machine, "WB", m.Type.String(), "WB") //proto:events PrbInv,PrbDowngrade //proto:actions answer from victim buffer //proto:emits PrbAck
		ack.HasData = true
		ack.Dirty = dirty
		cp.Stats.ProbeHits++
	} else if meta := cp.l2.Peek(m.Addr); meta != nil {
		cp.Stats.ProbeHits++
		ack.HasData = true
		ack.Dirty = meta.State.dirty()
		if m.Type == msg.PrbInv {
			cp.rec.Record(machine, meta.State.String(), "PrbInv", "I") //proto:states S,E,O,M //proto:actions ack with data, invalidate //proto:emits PrbAck
			cp.l2.Invalidate(m.Addr)
			cp.invalidateL1s(m.Addr)
		} else {
			switch meta.State {
			case Modified:
				cp.rec.Record(machine, "M", "PrbDowngrade", "O") //proto:emits PrbAck
				meta.State = Owned
			case Exclusive:
				cp.rec.Record(machine, "E", "PrbDowngrade", "S") //proto:emits PrbAck
				meta.State = Shared
			default:
				// S and O already lack write permission: ack, keep state.
				cp.rec.Record(machine, meta.State.String(), "PrbDowngrade", meta.State.String()) //proto:states S,O //proto:next S,O //proto:emits PrbAck
			}
		}
	} else {
		// Probe miss: the directory over-approximated the sharer set (or
		// the copy was silently clean-invalidated); ack without data.
		cp.rec.Record(machine, "I", m.Type.String(), "I") //proto:events PrbInv,PrbDowngrade //proto:actions ack without data //proto:emits PrbAck
	}
	cp.ic.Send(ack)
}

// L2State reports the MOESI state of a line (test/invariant hook).
func (cp *CorePair) L2State(line cachearray.LineAddr) MOESI {
	if meta := cp.l2.Peek(line); meta != nil {
		return meta.State
	}
	return Invalid
}

// ForEachL2Line visits every valid L2 line (invariant checking).
func (cp *CorePair) ForEachL2Line(fn func(line cachearray.LineAddr, st MOESI)) {
	cp.l2.ForEach(func(a cachearray.LineAddr, m *l2Meta) { fn(a, m.State) })
}

// OutstandingMisses reports MSHR occupancy (quiesce checks).
func (cp *CorePair) OutstandingMisses() int { return cp.mshr.Len() }

// WBState reports whether line sits in the victim buffer awaiting its
// WBAck, and whether the buffered data is dirty (checker/oracle hook).
func (cp *CorePair) WBState(line cachearray.LineAddr) (present, dirty bool) {
	d, ok := cp.wb.Get(line)
	return ok, d
}

// MissType reports the request type of line's outstanding miss, if any
// (checker/observer hook).
func (cp *CorePair) MissType(line cachearray.LineAddr) (msg.Type, bool) {
	if e, ok := cp.mshr.Get(line); ok {
		return e.typ, true
	}
	return 0, false
}

// MSHRWaiters reports the number of accesses parked on an outstanding
// miss to line (checker hook).
func (cp *CorePair) MSHRWaiters(line cachearray.LineAddr) int {
	return len(cp.mshrWait.At(line))
}

// WBWaiters reports the number of accesses stalled on line's
// outstanding writeback (checker hook).
func (cp *CorePair) WBWaiters(line cachearray.LineAddr) int {
	return len(cp.wbWait.At(line))
}
