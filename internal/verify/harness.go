package verify

import (
	"fmt"
	"sort"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/dma"
	"hscsim/internal/gpucache"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
)

// chaosFabric implements noc.Fabric with explicit delivery: Send only
// buffers; the checker picks which pending message to deliver next,
// exploring every delivery order. A Mutator can rewrite or drop a
// message at delivery time to seed protocol bugs for negative tests.
type chaosFabric struct {
	handlers  map[msg.NodeID]noc.Handler
	pending   []msg.Message // the checker delivers (and removes) any element
	mutate    noc.Mutator
	onDeliver noc.DeliveryHook
	engine    *sim.Engine
}

func (f *chaosFabric) Register(id msg.NodeID, h noc.Handler) {
	if _, dup := f.handlers[id]; dup {
		panic(fmt.Sprintf("verify: duplicate node %d", id))
	}
	f.handlers[id] = h
}

func (f *chaosFabric) Send(m msg.Message) {
	if _, ok := f.handlers[m.Dst]; !ok {
		panic(fmt.Sprintf("verify: send to unregistered node %d (%s)", m.Dst, m))
	}
	f.pending = append(f.pending, m)
}

// SendAfter buffers m once the delay elapses on the engine, which the
// checker drains between deliveries.
func (f *chaosFabric) SendAfter(delay sim.Tick, m msg.Message) {
	f.engine.Post(delay, f, 0, 0, m)
}

// OnEvent implements sim.Handler for SendAfter's one event: obj is the
// delayed message.
func (f *chaosFabric) OnEvent(_ uint8, _ uint64, obj any) { f.Send(obj.(msg.Message)) }

// reset drops every message in flight, keeping the wiring.
func (f *chaosFabric) reset() { f.pending = f.pending[:0] }

// deliver hands pending message i to its destination handler.
func (f *chaosFabric) deliver(i int) {
	m := f.pending[i]
	f.pending = append(f.pending[:i], f.pending[i+1:]...)
	if f.mutate != nil {
		var keep bool
		if m, keep = f.mutate(m); !keep {
			return // dropped
		}
	}
	f.handlers[m.Dst].Receive(m)
	if f.onDeliver != nil {
		f.onDeliver(f.engine.Now(), m)
	}
}

// chaosMem implements core.MemPort with explicit completion: read
// completions are buffered until the checker fires them, exploring
// memory reordering against probe traffic. Posted writes complete
// instantly (nothing waits for them).
type chaosMem struct {
	pending []pendingMem // the checker completes (and removes) any element
}

// pendingMem is one buffered read completion: the dispatch triple the
// directory handed to Read.
type pendingMem struct {
	addr cachearray.LineAddr
	h    sim.Handler
	kind uint8
	obj  any
}

func (c *chaosMem) Read(addr cachearray.LineAddr, h sim.Handler, kind uint8, obj any) {
	c.pending = append(c.pending, pendingMem{addr, h, kind, obj})
}

func (c *chaosMem) Write(cachearray.LineAddr) {}

// reset drops every buffered completion.
func (c *chaosMem) reset() {
	clear(c.pending)
	c.pending = c.pending[:0]
}

func (c *chaosMem) deliver(i int) {
	p := c.pending[i]
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	p.h.OnEvent(p.kind, uint64(p.addr), p.obj)
}

// OpKind is one agent operation class.
type OpKind uint8

// Agent operation kinds. CPU agents issue them through their CorePair
// (Atomic maps to an RMW); the GPU agent through the TCC complex
// (Atomic maps to a system-scope atomic).
const (
	Load OpKind = iota
	Store
	Atomic
	// IFetch is a CPU instruction fetch (L1I fill, RdBlkS). Only CPU
	// agents may issue it; the GPU and DMA agents panic.
	IFetch
)

func (k OpKind) String() string {
	switch k {
	case Store:
		return "st"
	case Atomic:
		return "at"
	case IFetch:
		return "if"
	}
	return "ld"
}

// AgentOp is one operation of an agent's straight-line program.
type AgentOp struct {
	Kind OpKind
	Line cachearray.LineAddr
}

// Scenario is a small workload for the model checker: per-agent
// straight-line programs over a handful of lines. Empty programs
// disable the agent.
type Scenario struct {
	Name  string
	Lines []cachearray.LineAddr // every line any program touches
	CPU0  []AgentOp
	CPU1  []AgentOp
	GPU   []AgentOp
	// DMA is the DMA engine's program: Load issues a DMARd, Store a
	// DMAWr (Atomic is not a DMA operation and panics). DMA agents are
	// uncached, so the oracle only tracks their write serialization.
	DMA []AgentOp
	// DirEntries overrides the tracking-directory capacity (default 16,
	// conflict-free for the standard lines; set 2 to force backward
	// invalidations).
	DirEntries int
}

type agent struct {
	name     string
	ops      []AgentOp
	next     int
	inflight bool
}

func (a *agent) done() bool { return !a.inflight && a.next >= len(a.ops) }

// reset rewinds the agent to its first op.
func (a *agent) reset() { a.next, a.inflight = 0, false }

// harness is one instantiation of the checked configuration: 2 CorePair
// L2s + 1 TCC + directory on a chaos fabric and chaos memory. Every
// cache array is direct-mapped so replacement state cannot diverge
// between runs that reach the same logical state. The checker keeps one
// harness and resets it before each replay.
type harness struct {
	opts   core.Options
	engine *sim.Engine
	fab    *chaosFabric
	mem    *chaosMem
	fm     *memdata.Memory
	cpus   []*corepair.CorePair
	gpu    *gpucache.GPUCaches
	dma    *dma.Engine
	dir    *core.Directory
	oracle *Oracle
	agents []*agent
	lines  []cachearray.LineAddr

	violation *core.ProtocolViolation
}

const (
	nodeL2A = msg.NodeID(0)
	nodeL2B = msg.NodeID(1)
	nodeTCC = msg.NodeID(2)
	nodeDir = msg.NodeID(3)
	nodeDMA = msg.NodeID(4)
)

func newHarness(opts core.Options, sc Scenario, mutate noc.Mutator) *harness {
	engine := sim.NewEngine()
	fab := &chaosFabric{handlers: make(map[msg.NodeID]noc.Handler), mutate: mutate, engine: engine}
	cmem := &chaosMem{}
	fm := memdata.New()

	cpCfg := corepair.Config{
		L1ISizeBytes: 64, L1IAssoc: 1,
		L1DSizeBytes: 64, L1DAssoc: 1,
		L2SizeBytes: 128, L2Assoc: 1, // 2 sets: lines 0x10/0x12 conflict
		L1Latency: 1, L2Latency: 1,
	}
	h := &harness{opts: opts, engine: engine, fab: fab, mem: cmem, fm: fm, lines: sc.Lines}
	h.cpus = append(h.cpus,
		corepair.New(engine, fab, nodeL2A, nodeDir, cpCfg),
		corepair.New(engine, fab, nodeL2B, nodeDir, cpCfg),
	)
	h.gpu = gpucache.New(engine, fab, []msg.NodeID{nodeTCC}, nodeDir, fm, gpucache.Config{
		NumTCCs:      1,
		TCPSizeBytes: 64, TCPAssoc: 1,
		TCCSizeBytes: 128, TCCAssoc: 1,
		SQCSizeBytes: 64, SQCAssoc: 1,
		TCPLatency: 1, TCCLatency: 1, SQCLatency: 1,
	}, 1)
	dirEntries := sc.DirEntries
	if dirEntries == 0 {
		dirEntries = 16
	}
	h.dir = core.NewDirectory(engine, fab, cmem, fm, core.DirectoryConfig{
		ID: nodeDir, L2s: []msg.NodeID{nodeL2A, nodeL2B}, TCCs: []msg.NodeID{nodeTCC},
		Opts:   opts,
		Timing: core.Timing{DirLatency: 1, LLCLatency: 1},
		Geo: core.Geometry{
			LLCSizeBytes: 128, LLCAssoc: 1, // 2 sets, conflicts with the L2 pattern
			DirEntries: dirEntries, DirAssoc: 1,
		},
	})
	fab.Register(nodeDir, h.dir)
	h.dma = dma.New(engine, fab, nodeDMA, nodeDir)

	h.oracle = NewOracle(OracleConfig{
		Engine: engine,
		CPUs:   h.cpus,
		GPU:    h.gpu,
		Dir:    h.dir,
		Opts:   opts,
		Report: func(v *core.ProtocolViolation) {
			if h.violation == nil {
				h.violation = v
			}
		},
	})
	fab.onDeliver = h.oracle.OnDeliver

	// The directory reads the recorder from its Options copy; the other
	// controllers are wired explicitly, as in system.New. The checker's
	// replay-based search re-fires transitions on every replay, which
	// inflates counts but leaves the fired set — all coverage needs —
	// exact.
	if r := opts.Recorder; r != nil {
		for _, cpu := range h.cpus {
			cpu.SetRecorder(r)
		}
		h.gpu.SetRecorder(r)
		h.dma.SetRecorder(r)
	}

	h.agents = []*agent{
		{name: "cpu0", ops: sc.CPU0},
		{name: "cpu1", ops: sc.CPU1},
		{name: "gpu", ops: sc.GPU},
		{name: "dma", ops: sc.DMA},
	}
	return h
}

// reset returns the harness to the state newHarness builds, keeping
// its storage: every component, the fabric, the memory and the agents
// restart, so a replay on a reset harness reaches the states one on a
// new harness does.
func (h *harness) reset() {
	h.engine.Reset()
	h.fab.reset()
	h.mem.reset()
	h.fm.Reset()
	for _, cp := range h.cpus {
		cp.Reset()
	}
	h.gpu.Reset()
	h.dma.Reset()
	h.dir.Reset(h.opts)
	h.oracle.Reset(h.opts)
	for _, ag := range h.agents {
		ag.reset()
	}
	h.violation = nil
}

// action is one schedulable checker choice.
type action struct {
	kind byte // 'm' deliver message, 'r' memory completion, 'o' issue op
	idx  int
}

// enabled lists the schedulable actions in a deterministic order. Every
// pending message is deliverable: the fabric is fully unordered.
func (h *harness) enabled() []action {
	var out []action
	for i := range h.fab.pending {
		out = append(out, action{'m', i})
	}
	for i := range h.mem.pending {
		out = append(out, action{'r', i})
	}
	for i, ag := range h.agents {
		if !ag.inflight && ag.next < len(ag.ops) {
			out = append(out, action{'o', i})
		}
	}
	return out
}

// describe renders an action for counterexample traces.
func (h *harness) describe(a action) string {
	switch a.kind {
	case 'm':
		return "deliver " + h.fab.pending[a.idx].String()
	case 'r':
		return fmt.Sprintf("mem done addr=%#x", uint64(h.mem.pending[a.idx].addr))
	default:
		ag := h.agents[a.idx]
		op := ag.ops[ag.next]
		return fmt.Sprintf("%s issues %s %#x", ag.name, op.Kind, uint64(op.Line))
	}
}

// perform executes one action and drains the engine. Defensive panics
// inside the controllers become recorded violations.
func (h *harness) perform(a action) {
	defer func() {
		if r := recover(); r != nil {
			if h.violation == nil {
				h.violation = asViolation(r)
			}
		}
	}()
	switch a.kind {
	case 'm':
		h.fab.deliver(a.idx)
	case 'r':
		h.mem.deliver(a.idx)
	default:
		h.issue(a.idx)
	}
	h.drain()
}

// drain runs engine events up to drainBudget. Exhausting the budget
// with no external action left to unblock progress is a livelock.
func (h *harness) drain() {
	for i := 0; i < drainBudget; i++ {
		// The harness sets neither MaxTicks nor Interrupt, so Step can
		// only error on those — treat one as a harness bug.
		ok, err := h.engine.Step()
		if err != nil {
			panic(err)
		}
		if !ok {
			return
		}
		if h.violation != nil {
			return
		}
	}
	if len(h.fab.pending) == 0 && len(h.mem.pending) == 0 && h.violation == nil {
		h.violation = &core.ProtocolViolation{
			Rule:  "livelock",
			Cycle: h.engine.Now(),
			Detail: fmt.Sprintf("engine still busy after %d events with no pending message or memory completion to unblock it",
				drainBudget),
		}
	}
}

// issue starts agent ai's next operation.
func (h *harness) issue(ai int) {
	ag := h.agents[ai]
	op := ag.ops[ag.next]
	ag.inflight = true
	fin := func() {
		ag.inflight = false
		ag.next++
	}
	if ai < 2 { // CPU agents
		cp := h.cpus[ai]
		node := cp.NodeID()
		switch op.Kind {
		case Load:
			tok := h.oracle.LoadIssued(node, op.Line)
			cp.Access(0, corepair.Load, op.Line, func() {
				h.oracle.LoadRetired(node, op.Line, tok)
				fin()
			})
		case Store:
			cp.Access(0, corepair.Store, op.Line, func() {
				h.fm.Write(memdata.Addr(op.Line)<<6, uint64(ag.next)+1)
				h.oracle.StoreRetired(node, op.Line)
				fin()
			})
		case Atomic:
			cp.Access(0, corepair.RMW, op.Line, func() {
				h.fm.RMW(memdata.Addr(op.Line)<<6, memdata.AtomicAdd, 1, 0)
				h.oracle.StoreRetired(node, op.Line)
				fin()
			})
		case IFetch:
			// An instruction fetch is a data-free shared read (RdBlkS);
			// the oracle's value check has nothing to verify.
			cp.Access(0, corepair.IFetch, op.Line, fin)
		}
		return
	}
	if ai == 2 {
		switch op.Kind { // GPU agent: VIPER semantics, loads unchecked
		case Load:
			h.gpu.ReadLine(0, op.Line, fin)
		case Store:
			h.gpu.WriteLine(0, op.Line, fin)
		case Atomic:
			h.gpu.AtomicSystem(0, op.Line, memdata.Addr(op.Line)<<6, memdata.AtomicAdd, 1, 0,
				func(uint64) { fin() })
		default:
			panic("verify: GPU agents have no instruction-fetch operation")
		}
		return
	}
	switch op.Kind { // DMA agent: uncached line-granular transfers
	case Load:
		h.dma.ReadBlock(op.Line, fin)
	case Store:
		h.dma.WriteBlock(op.Line, fin)
	default:
		panic("verify: DMA agents have no atomic operation")
	}
}

func (h *harness) allDone() bool {
	for _, ag := range h.agents {
		if !ag.done() {
			return false
		}
	}
	return true
}

// fingerprint renders the complete explorable state: per-line cache,
// victim-buffer, MSHR, TCC, directory and LLC state; agent progress;
// the pending message multiset; pending memory completions; and the
// engine backlog. Oracle versions are deliberately excluded (they grow
// monotonically and would defeat revisit pruning); they are an
// abstraction layered on top of the protocol state, not part of it.
func (h *harness) fingerprint() string {
	var b strings.Builder
	for _, line := range h.lines {
		for _, cp := range h.cpus {
			wb, wbd := cp.WBState(line)
			fmt.Fprintf(&b, "%s%t%t%d%d,", cp.L2State(line), wb, wbd, cp.MSHRWaiters(line), cp.WBWaiters(line))
		}
		mw, wt, at := h.gpu.PendingLine(line)
		fmt.Fprintf(&b, "g%t%t%d%d%d,", h.gpu.TCCHas(line), h.gpu.TCCDirty(line), mw, wt, at)
		dr, dw := h.dma.Pending(line)
		fmt.Fprintf(&b, "d%d%d,", dr, dw)
		b.WriteString(h.dir.LineFingerprint(line))
		b.WriteByte(';')
	}
	for _, ag := range h.agents {
		fmt.Fprintf(&b, "a%d%t,", ag.next, ag.inflight)
	}
	msgs := make([]string, len(h.fab.pending))
	for i, m := range h.fab.pending {
		msgs[i] = fmt.Sprintf("%d:%x:%d>%d:%d:%t%t%t:%d",
			m.Type, uint64(m.Addr), m.Src, m.Dst, m.Grant, m.HasData, m.Dirty, m.Retain, m.TxnID)
	}
	// Unordered delivery: the multiset is the state, order is free.
	sort.Strings(msgs)
	b.WriteString(strings.Join(msgs, "|"))
	b.WriteByte(';')
	mems := make([]string, len(h.mem.pending))
	for i, p := range h.mem.pending {
		mems[i] = fmt.Sprintf("%x", uint64(p.addr))
	}
	sort.Strings(mems)
	b.WriteString(strings.Join(mems, "|"))
	fmt.Fprintf(&b, ";q%d", h.engine.Pending())
	return b.String()
}

// asViolation converts a recovered panic value into a violation.
func asViolation(r interface{}) *core.ProtocolViolation {
	if v, ok := r.(*core.ProtocolViolation); ok {
		return v
	}
	return &core.ProtocolViolation{Rule: "panic", Detail: fmt.Sprint(r)}
}
