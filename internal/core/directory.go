package core

import (
	"fmt"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/recycle"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// Directory is the system-level directory controller. It services
// requests from the CorePair L2s, the TCC and the DMA engine, probes the
// processor caches, and manages the LLC and the main-memory interface
// (the only path to memory in the system).
type Directory struct {
	engine  *sim.Engine
	ic      noc.Fabric
	mem     MemPort
	funcMem *memdata.Memory
	opts    Options
	timing  Timing

	id      msg.NodeID
	l2s     []msg.NodeID // CPU probe targets
	tccIDs  []msg.NodeID // TCC bank nodes (Table III configures 1)
	targets []msg.NodeID // l2s + TCCs, in probe-index order

	llc    *llc
	dirArr *cachearray.Array[dirEntry] // nil when Tracking == TrackNone

	txns recycle.Table[cachearray.LineAddr, *txn]
	// pend parks requests for a busy line; drained queues' backing
	// arrays are reused.
	pend     recycle.Queues[cachearray.LineAddr, msg.Message] // drained by drainPending on txn completion
	nextID   uint64
	roRanges []LineRange

	// Recycled storage, so a steady-state request allocates nothing:
	// released txn records, and the one probe-destination buffer that
	// probeSet and invTargets fill and sendProbes consumes before
	// anything can refill it.
	freeTxns recycle.Free[txn]
	dsts     []msg.NodeID
	// pinEntry is entryPinned bound once, so allocation passes no
	// fresh closure to the directory array.
	pinEntry func(cachearray.LineAddr, *dirEntry) bool

	Stats DirStats
}

// DirStats are the directory's counters and its transaction-latency
// histogram.
type DirStats struct {
	Requests              uint64 `stat:"requests"`
	ProbesSent            uint64 `stat:"probes_sent"` // Fig. 7's metric, backward invalidations included
	ProbeAcks             uint64 `stat:"probe_acks"`
	EarlyResponses        uint64 `stat:"early_responses"` // §III-A
	EntryEvictions        uint64 `stat:"entry_evictions"`
	BackwardInvalProbes   uint64 `stat:"backward_inval_probes"`
	ProbeFreeTransactions uint64 `stat:"probe_free_transactions"`
	StaleVictims          uint64 `stat:"stale_victims"`
	AllocStalls           uint64 `stat:"alloc_stalls"`
	Flushes               uint64 `stat:"flushes"`
	Atomics               uint64 `stat:"atomics"`
	WriteThroughs         uint64 `stat:"write_throughs"`
	ReadOnlyElided        uint64 `stat:"readonly_elided"` // probe- and tracking-free read-only transactions

	TxnLatency stats.Histogram `stat:"txn_latency"`
}

// dirState is a stable state of the tracking directory (§IV-A). Absence
// of an entry is state I.
type dirState uint8

// Directory entry stable states.
const (
	dirS dirState = iota // cached clean; LLC/memory coherent
	dirO                 // modified/owned/exclusive in a processor cache
)

func (s dirState) String() string {
	if s == dirO {
		return "O"
	}
	return "S"
}

// MaxTrackedTargets is the most probe targets (L2s, then TCC banks) a
// tracking directory can address: dirEntry.Sharers is a bitmap over
// their indexes.
const MaxTrackedTargets = 64

// dirEntry is the per-line tracking state.
type dirEntry struct {
	State    dirState
	Owner    int8   // probe-target index; -1 when none
	Sharers  uint64 // bitmap over probe-target indexes
	Overflow bool   // limited-pointer list overflowed: broadcast invals
	Busy     bool   // entry eviction (backward invalidation) in flight
}

func (e *dirEntry) sharerCount() int {
	n := 0
	for b := e.Sharers; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// DirectoryConfig wires a Directory into the system.
type DirectoryConfig struct {
	ID     msg.NodeID
	L2s    []msg.NodeID
	TCCs   []msg.NodeID // one node per TCC bank
	Opts   Options
	Timing Timing
	Geo    Geometry
}

// NewDirectory creates the directory, its LLC, and (in tracking modes)
// the directory cache.
func NewDirectory(engine *sim.Engine, ic noc.Fabric, mem MemPort,
	fm *memdata.Memory, cfg DirectoryConfig) *Directory {

	d := &Directory{
		engine:  engine,
		ic:      ic,
		mem:     mem,
		funcMem: fm,
		opts:    cfg.Opts,
		timing:  cfg.Timing,
		id:      cfg.ID,
		l2s:     append([]msg.NodeID(nil), cfg.L2s...),
		tccIDs:  append([]msg.NodeID(nil), cfg.TCCs...),
		llc:     newLLC(cfg.Geo, cfg.Opts, mem),
	}
	d.targets = append(append([]msg.NodeID(nil), d.l2s...), d.tccIDs...)
	d.dsts = make([]msg.NodeID, 0, len(d.targets))
	d.pinEntry = d.entryPinned
	if cfg.Opts.Tracking != TrackNone {
		if n := len(d.targets); n > MaxTrackedTargets {
			panic(fmt.Sprintf("core: %d probe targets; a tracking directory tracks at most %d", n, MaxTrackedTargets))
		}
		d.dirArr = cachearray.New[dirEntry](cfg.Geo.DirArray())
	}
	return d
}

// isTCC reports whether a node is one of the TCC banks.
func (d *Directory) isTCC(n msg.NodeID) bool {
	for _, t := range d.tccIDs {
		if t == n {
			return true
		}
	}
	return false
}

// targetIndex maps a node to its probe-target index.
func (d *Directory) targetIndex(n msg.NodeID) int {
	for i, t := range d.targets {
		if t == n {
			return i
		}
	}
	return -1
}

// txn is one in-flight directory transaction. The directory serializes
// transactions per line: while a txn exists for a line, later requests
// stall in d.pend (the paper's blocked B/_PM/_Pm/_M states). Records
// come from d.freeTxns and return to it when the transaction ends
// (complete, finishEviction).
type txn struct {
	id    uint64
	req   msg.Message
	addr  cachearray.LineAddr
	start sim.Tick

	pendingAcks   int
	dataFromCache bool // some probe ack carried data
	dirtyAck      bool // some probe ack carried dirty data
	downgrade     bool // probes were downgrading (early-resp eligible)

	needData  bool // a data payload must be sourced for the response
	memIssued bool // LLC/memory read in flight
	memDone   bool

	responded   bool
	needUnblock bool
	unblocked   bool
	forceShared bool // tracked S-state reads are forced to a Shared grant

	// commit is applied once when the response data/acks are resolved,
	// before the response is sent (atomic RMW, WT commits, entry
	// updates). entry, reqIdx and owner are its operands: the tracked
	// entry (kept valid by allocateEntry's pin while this txn lives), the
	// requester's and the probed owner's probe-target indexes.
	commit commitKind
	reqIdx int8
	owner  int8
	entry  *dirEntry
	// extraLatency delays the response (e.g. displaced-dirty LLC lines).
	extraLatency sim.Tick

	eviction bool // this txn is a directory-entry backward invalidation
	// waiting is the read whose entry allocation this eviction frees a
	// way for; finishEviction resumes it.
	waiting *txn
}

// commitKind selects the commit respond applies (txn.commit).
type commitKind uint8

const (
	commitNone          commitKind = iota
	commitWrite                    // stateless WT, Atomic or DMAWr data commit
	commitWritePerm                // tracked WT/Atomic/DMAWr: data commit, then entry update
	commitFill                     // tracked read of an untracked line: entry I → S or O
	commitAddSharer                // tracked read of an S line
	commitOwnerReread              // the owner re-reads its own line: O → S
	commitOwnerRead                // another reader probed the owner: M→O or E→S
	commitUpgrade                  // the owner upgrades: sharers invalidated
	commitTakeOwnership            // RdBlkM: the requester becomes the owner
	commitDMAOwner                 // DMARd probed the owner: E→S or M→O
)

// Receive implements noc.Handler. Requests are kept (as txn.req for
// the life of their transaction, or queued in d.pend); acks and
// unblocks update the transaction they name.
func (d *Directory) Receive(m msg.Message) {
	switch m.Type {
	case msg.PrbAck:
		d.handleAck(&m)
	case msg.Unblock:
		d.handleUnblock(&m)
	default:
		if !m.Type.IsRequest() {
			d.violate("dispatch", m.Addr, m.TxnID, m, "directory received a non-request message")
		}
		d.enqueue(&m)
	}
}

func (d *Directory) enqueue(m *msg.Message) {
	if d.txns.Find(m.Addr) != nil {
		d.pend.Push(m.Addr, *m)
		return
	}
	d.start(m)
}

func (d *Directory) start(m *msg.Message) {
	d.Stats.Requests++
	t := d.freeTxns.Get()
	*t = txn{id: d.nextID, req: *m, addr: m.Addr, start: d.engine.Now()}
	d.nextID++
	*d.txns.Put(m.Addr) = t
	// The directory-cache/transaction-table access costs DirLatency.
	d.engine.Post(d.timing.DirLatency, d, dirKindBegin, 0, t)
}

func (d *Directory) begin(t *txn) {
	if d.isReadOnly(t.addr) {
		d.beginReadOnly(t)
		return
	}
	if d.opts.Tracking == TrackNone {
		d.beginStateless(t)
	} else {
		d.beginTracked(t)
	}
}

// ---------------------------------------------------------------------
// Stateless baseline (§II-D): every permission request broadcasts probes
// and reads the LLC (falling back to memory).

func (d *Directory) beginStateless(t *txn) {
	m := &t.req
	switch m.Type {
	case msg.RdBlk, msg.RdBlkS, msg.RdBlkM:
		d.opts.Recorder.Record(machStateless, "-", m.Type.String(), "-") //proto:events RdBlk,RdBlkS,RdBlkM //proto:actions broadcast probes, read LLC/mem, grant //proto:emits PrbInv,PrbDowngrade,Resp
		t.needData = true
		t.needUnblock = !d.isTCC(m.Src)
		inv := m.Type == msg.RdBlkM
		t.downgrade = !inv
		d.sendProbes(t, inv, d.probeSet(inv, m.Src))
		d.issueRead(t)
		d.maybeProgress(t)

	case msg.VicDirty, msg.VicClean:
		d.opts.Recorder.Record(machStateless, "-", m.Type.String(), "-") //proto:events VicDirty,VicClean //proto:actions commit victim (dir.llc), WBAck //proto:emits WBAck
		d.commitVictim(t, m.Type == msg.VicDirty)
		d.respondAndFinish(t, msg.WBAck)

	case msg.WT:
		d.opts.Recorder.Record(machStateless, "-", "WT", "-") //proto:actions broadcast inv probes, commit WT (dir.llc), WBAck //proto:emits PrbInv,WBAck
		d.Stats.WriteThroughs++
		d.sendProbes(t, true, d.probeSet(true, m.Src))
		t.commit = commitWrite
		d.maybeProgress(t)

	case msg.Atomic:
		d.opts.Recorder.Record(machStateless, "-", "Atomic", "-") //proto:actions broadcast inv probes, RMW at directory, AtomicResp //proto:emits PrbInv,AtomicResp
		d.Stats.Atomics++
		t.needData = true
		d.sendProbes(t, true, d.probeSet(true, m.Src))
		d.issueRead(t)
		t.commit = commitWrite
		d.maybeProgress(t)

	case msg.Flush:
		d.opts.Recorder.Record(machStateless, "-", "Flush", "-") //proto:actions FlushAck //proto:emits FlushAck
		d.Stats.Flushes++
		d.respondAndFinish(t, msg.FlushAck)

	case msg.DMARd:
		d.opts.Recorder.Record(machStateless, "-", "DMARd", "-") //proto:actions broadcast downgrade probes, read LLC/mem //proto:emits PrbDowngrade,Resp
		t.needData = true
		t.downgrade = true
		d.sendProbes(t, false, d.probeSet(false, m.Src))
		d.issueRead(t)
		d.maybeProgress(t)

	case msg.DMAWr:
		d.opts.Recorder.Record(machStateless, "-", "DMAWr", "-") //proto:actions broadcast inv probes, write memory (dir.llc) //proto:emits PrbInv,WBAck
		d.sendProbes(t, true, d.probeSet(true, m.Src))
		t.commit = commitWrite
		d.maybeProgress(t)

	default:
		d.violate("dispatch", t.addr, t.id, *m, "request type not handled by the stateless directory")
	}
}

// commitWrite applies a WT, Atomic or DMAWr's data commit once its
// invalidations are acknowledged, in both directory organizations
// (commitWritePerm then updates the tracked entry).
func (d *Directory) commitWrite(t *txn) {
	switch t.req.Type {
	case msg.WT:
		t.extraLatency += d.commitWT(t.addr)
	case msg.Atomic:
		d.commitAtomic(t)
	default: // msg.DMAWr
		// DMA writes do not update the L3 (§III-C); drop the stale copy.
		d.opts.Recorder.Record(machLLC, "-", "DMAWr", "mem") //proto:actions invalidate stale LLC copy, write memory
		d.llc.invalidate(t.addr)
		d.mem.Write(t.addr)
	}
}

// probeSet returns the stateless probe destinations: every L2 except the
// requester; invalidating probes also include the TCC (footnote 4). The
// slice is d.dsts, valid until the next probeSet or invTargets.
func (d *Directory) probeSet(inv bool, requester msg.NodeID) []msg.NodeID {
	out := d.dsts[:0]
	for _, n := range d.l2s {
		if n != requester {
			out = append(out, n)
		}
	}
	if inv {
		for _, n := range d.tccIDs {
			if n != requester {
				out = append(out, n)
			}
		}
	}
	return out
}

func (d *Directory) sendProbes(t *txn, inv bool, dsts []msg.NodeID) {
	typ := msg.PrbDowngrade
	if inv {
		typ = msg.PrbInv
	}
	for _, dst := range dsts {
		d.Stats.ProbesSent++
		if t.eviction {
			d.Stats.BackwardInvalProbes++
		}
		d.ic.Send(msg.Message{Type: typ, Addr: t.addr, Src: d.id, Dst: dst, TxnID: t.id})
	}
	t.pendingAcks += len(dsts)
	if len(dsts) == 0 && !t.eviction {
		d.Stats.ProbeFreeTransactions++
	}
}

// issueRead models the LLC read (LLCLatency) with fallback to memory.
func (d *Directory) issueRead(t *txn) {
	t.memIssued = true
	d.engine.Post(d.timing.LLCLatency, d, dirKindLLCRead, 0, t)
}

func (d *Directory) llcRead(t *txn) {
	if d.llc.read(t.addr) {
		t.memDone = true
		d.maybeProgress(t)
		return
	}
	d.mem.Read(t.addr, d, dirKindMemRead, t)
}

// Directory event kinds (sim.Handler dispatch).
const (
	dirKindBegin      uint8 = iota // obj: *txn — transaction-table access done
	dirKindLLCRead                 // obj: *txn — LLC array access done
	dirKindMemRead                 // obj: *txn — memory read done (via MemPort)
	dirKindAllocRetry              // obj: *txn — retry a stalled entry allocation
)

// OnEvent implements sim.Handler for the directory's scheduled work, so
// the request path runs closure-free.
func (d *Directory) OnEvent(kind uint8, arg uint64, obj any) {
	t := obj.(*txn)
	switch kind {
	case dirKindBegin:
		d.begin(t)
	case dirKindLLCRead:
		d.llcRead(t)
	case dirKindMemRead:
		t.memDone = true
		d.maybeProgress(t)
	case dirKindAllocRetry:
		d.allocateEntry(t)
	}
}

func (d *Directory) handleAck(m *msg.Message) {
	t, _ := d.txns.Get(m.Addr)
	if t == nil || t.id != m.TxnID {
		have := "none"
		if t != nil {
			have = fmt.Sprintf("txn id=%d type=%s pendingAcks=%d", t.id, t.req.Type, t.pendingAcks)
		}
		d.violate("stray-probe-ack", m.Addr, m.TxnID, *m, "ack for "+have)
	}
	d.Stats.ProbeAcks++
	t.pendingAcks--
	if m.HasData {
		t.dataFromCache = true
	}
	if m.Dirty {
		t.dirtyAck = true
	}
	d.maybeProgress(t)
}

func (d *Directory) handleUnblock(m *msg.Message) {
	t, _ := d.txns.Get(m.Addr)
	if t == nil {
		d.violate("stray-unblock", m.Addr, m.TxnID, *m, "no transaction in flight for the line")
	}
	t.unblocked = true
	d.maybeProgress(t)
}

// maybeProgress advances a transaction: respond when the response
// conditions hold, complete when everything has drained. Completing
// releases t, so no caller touches t after maybeProgress returns.
func (d *Directory) maybeProgress(t *txn) {
	if t.eviction {
		if t.pendingAcks == 0 {
			d.finishEviction(t)
		}
		return
	}
	if !t.responded {
		// Fallback data source: a probed owner turned out not to have
		// the line (its victim crossed our probe in flight and was
		// already drained); fetch from the LLC/memory instead.
		if t.pendingAcks == 0 && t.needData && !t.dataFromCache && !t.memIssued {
			d.issueRead(t)
		}
		if !d.readyToRespond(t) {
			return
		}
		d.respond(t)
	}
	if t.pendingAcks == 0 && (!t.memIssued || t.memDone) && (!t.needUnblock || t.unblocked) {
		d.complete(t)
	}
}

func (d *Directory) readyToRespond(t *txn) bool {
	dataReady := !t.needData || t.dataFromCache || t.memDone
	if t.pendingAcks == 0 && (!t.memIssued || t.memDone) && dataReady {
		return true
	}
	// §III-A: on downgrading probes, the first dirty acknowledgment
	// already carries the authoritative data.
	if d.opts.EarlyDirtyResponse && t.downgrade && t.dirtyAck {
		return true
	}
	return false
}

// respond applies the transaction's commit and sends its response; the
// caller (maybeProgress) then checks for completion.
func (d *Directory) respond(t *txn) {
	t.responded = true
	if d.opts.EarlyDirtyResponse && t.downgrade && t.dirtyAck &&
		(t.pendingAcks > 0 || (t.memIssued && !t.memDone)) {
		d.Stats.EarlyResponses++
	}
	switch t.commit {
	case commitWrite:
		d.commitWrite(t)
	case commitWritePerm:
		d.commitWritePerm(t)
	case commitFill:
		d.commitFill(t)
	case commitAddSharer:
		d.addSharer(t.entry, int(t.reqIdx))
	case commitOwnerReread:
		e := t.entry
		e.State = dirS
		e.Owner = -1
		e.Sharers = 0
		d.addSharer(e, int(t.reqIdx))
	case commitOwnerRead:
		d.commitOwnerRead(t)
	case commitUpgrade:
		t.entry.Sharers = 0
		t.entry.Overflow = false
	case commitTakeOwnership:
		e := t.entry
		e.State = dirO
		e.Owner = t.reqIdx
		e.Sharers = 0
		e.Overflow = false
	case commitDMAOwner:
		d.commitDMAOwner(t)
	}
	d.send(t, d.buildResponse(t))
}

// send emits a transaction's response after any extra latency its
// commit charged.
func (d *Directory) send(t *txn, out msg.Message) {
	if t.extraLatency > 0 {
		d.ic.SendAfter(t.extraLatency, out)
	} else {
		d.ic.Send(out)
	}
}

func (d *Directory) buildResponse(t *txn) msg.Message {
	m := &t.req
	out := msg.Message{Addr: t.addr, Src: d.id, Dst: m.Src, TxnID: t.id, FromCache: t.dataFromCache}
	switch m.Type {
	case msg.RdBlk:
		out.Type = msg.Resp
		out.Grant = t.grantForRdBlk()
	case msg.RdBlkS:
		out.Type = msg.Resp
		out.Grant = msg.GrantS
	case msg.RdBlkM:
		out.Type = msg.Resp
		out.Grant = msg.GrantM
	case msg.DMARd:
		out.Type = msg.Resp
		out.Grant = msg.GrantS
	case msg.VicDirty, msg.VicClean, msg.WT, msg.DMAWr:
		out.Type = msg.WBAck
	case msg.Atomic:
		out.Type = msg.AtomicResp
		out.Old = m.Old // filled by commitAtomic
	case msg.Flush:
		out.Type = msg.FlushAck
	default:
		d.violate("dispatch", t.addr, t.id, *m, "no response defined for request type")
	}
	return out
}

// grantForRdBlk: Exclusive unless the data came from a peer cache or the
// tracked state forces Shared (t.forceShared set by the tracked path).
func (t *txn) grantForRdBlk() msg.Grant {
	if t.dataFromCache || t.forceShared {
		return msg.GrantS
	}
	return msg.GrantE
}

func (d *Directory) respondAndFinish(t *txn, typ msg.Type) {
	t.responded = true
	d.send(t, msg.Message{Type: typ, Addr: t.addr, Src: d.id, Dst: t.req.Src, TxnID: t.id})
	d.maybeProgress(t)
}

func (d *Directory) complete(t *txn) {
	d.Stats.TxnLatency.Observe(uint64(d.engine.Now() - t.start))
	d.txns.Delete(t.addr)
	d.drainPending(t.addr)
	// Nothing refers to t any more: its begin, LLC-read and memory-read
	// events have all fired (completion waits for memDone), every probe
	// ack has been counted, and its d.txns entry is gone, so no ack or
	// unblock can find it. The request drainPending started took a
	// different record.
	d.freeTxns.Put(t)
}

func (d *Directory) drainPending(addr cachearray.LineAddr) {
	if next, ok := d.pend.Pop(addr); ok {
		d.start(&next)
	}
}

// ---------------------------------------------------------------------
// Write commits shared by both directory organizations.

// commitVictim applies the LLC/memory write policy for an L2 victim
// (§III-B, §III-B1, §III-C) and charges any displaced-dirty penalty.
func (d *Directory) commitVictim(t *txn, dirty bool) {
	t.extraLatency += d.timing.LLCLatency
	if dirty {
		if d.opts.LLCWriteBack {
			d.opts.Recorder.Record(machLLC, "-", "VicDirty", "llc-dirty") //proto:when LLCWriteBack //proto:actions insert dirty LLC line, defer memory write
			if d.llc.insert(t.addr, true) {
				t.extraLatency += 8 // conflicting dirty LLC line on the critical path
			}
			return
		}
		d.opts.Recorder.Record(machLLC, "-", "VicDirty", "llc+mem") //proto:unless LLCWriteBack //proto:actions write-through LLC insert plus memory write
		d.llc.insert(t.addr, false)
		d.mem.Write(t.addr)
		return
	}
	// Clean victim.
	switch {
	case d.opts.NoWBCleanVicToLLC:
		// Dropped entirely (§III-B1): "lost in the air".
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "drop") //proto:when NoWBCleanVicToLLC //proto:actions drop clean victim
	case d.opts.LLCWriteBack:
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "llc") //proto:when LLCWriteBack //proto:unless NoWBCleanVicToLLC //proto:actions insert clean LLC line, no memory write
		if d.llc.insert(t.addr, false) {
			t.extraLatency += 8
		}
	case d.opts.NoWBCleanVicToMem:
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "llc") //proto:when NoWBCleanVicToMem //proto:unless NoWBCleanVicToLLC,LLCWriteBack //proto:actions insert clean LLC line, no memory write
		d.llc.insert(t.addr, false)
	default:
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "llc+mem") //proto:unless NoWBCleanVicToLLC,LLCWriteBack,NoWBCleanVicToMem //proto:actions write-through LLC insert plus memory write
		d.llc.insert(t.addr, false)
		d.mem.Write(t.addr)
	}
}

// commitWT applies a TCC write-through / atomic result write. Returns
// extra response latency for displaced dirty LLC lines.
func (d *Directory) commitWT(addr cachearray.LineAddr) sim.Tick {
	if d.opts.UseL3OnWT {
		if d.opts.LLCWriteBack {
			d.opts.Recorder.Record(machLLC, "-", "WT", "llc-dirty") //proto:when UseL3OnWT,LLCWriteBack //proto:actions insert dirty LLC line, defer memory write
			if d.llc.insert(addr, true) {
				return 8
			}
			return 0
		}
		// Write-through LLC: the LLC write also writes memory.
		d.opts.Recorder.Record(machLLC, "-", "WT", "llc+mem") //proto:when UseL3OnWT //proto:unless LLCWriteBack //proto:actions write-through LLC insert plus memory write
		d.llc.insert(addr, false)
		d.mem.Write(addr)
		return 0
	}
	// Bypass: write memory directly; the LLC copy (if any) is stale.
	d.opts.Recorder.Record(machLLC, "-", "WT", "mem") //proto:unless UseL3OnWT //proto:actions invalidate stale LLC copy, write memory
	d.llc.invalidate(addr)
	d.mem.Write(addr)
	return 0
}

// commitAtomic performs the system-scope read-modify-write at the
// directory (system-level visibility, §II-C) and writes the result.
func (d *Directory) commitAtomic(t *txn) {
	m := &t.req
	m.Old = d.funcMem.RMW(m.WordAddr, m.AOp, m.Operand, m.Compare)
	t.extraLatency += d.commitWT(t.addr)
}

// LLCStats returns the LLC's counters.
func (d *Directory) LLCStats() *LLCStats { return &d.llc.stats }

// LLCHas reports whether the LLC holds addr (test hook).
func (d *Directory) LLCHas(addr cachearray.LineAddr) bool { return d.llc.present(addr) }

// LLCDirty reports whether the LLC holds addr dirty (test hook).
func (d *Directory) LLCDirty(addr cachearray.LineAddr) bool { return d.llc.dirtyLine(addr) }

// Idle reports whether the directory has no in-flight transactions.
func (d *Directory) Idle() bool { return d.txns.Len() == 0 && d.pend.Len() == 0 }

// LineBusy reports whether a transaction is in flight (or queued) for
// addr (checker/oracle hook: stable-state invariants are only asserted
// on quiescent lines).
func (d *Directory) LineBusy(addr cachearray.LineAddr) bool {
	return d.txns.Find(addr) != nil || len(d.pend.At(addr)) > 0
}

// LineFingerprint renders the directory's complete per-line state —
// in-flight transaction flags, queued request types, tracking entry and
// LLC state — as a canonical string for the model checker's state hash.
func (d *Directory) LineFingerprint(addr cachearray.LineAddr) string {
	var b strings.Builder
	if t, ok := d.txns.Get(addr); ok {
		fmt.Fprintf(&b, "txn(%s,%d,a%d,r%t,mi%t,md%t,u%t,nu%t,nd%t,dfc%t,da%t,dg%t,fs%t,ev%t,id%d)",
			t.req.Type, t.req.Src, t.pendingAcks, t.responded, t.memIssued, t.memDone,
			t.unblocked, t.needUnblock, t.needData, t.dataFromCache, t.dirtyAck, t.downgrade,
			t.forceShared, t.eviction, t.id)
	}
	for _, m := range d.pend.At(addr) {
		fmt.Fprintf(&b, "+%s<%d", m.Type, m.Src)
	}
	st, owner, sharers := d.EntryState(addr)
	fmt.Fprintf(&b, "|%s,%d,%#x", st, owner, sharers)
	fmt.Fprintf(&b, "|llc%t%t", d.llc.present(addr), d.llc.dirtyLine(addr))
	return b.String()
}
