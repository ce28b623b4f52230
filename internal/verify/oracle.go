// Package verify is the protocol-correctness toolkit: a runtime
// coherence oracle that cross-checks cache states against a golden
// version mirror after every message delivery, and an exhaustive model
// checker (checker.go) that drives small configurations through every
// interleaving of message delivery, memory completion and operation
// issue.
package verify

import (
	"fmt"
	"sort"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/gpucache"
	"hscsim/internal/msg"
	"hscsim/internal/sim"
)

// copyState mirrors one CPU L2's view of a line: whether the oracle
// believes the cache holds it, and the version of the data it holds.
type copyState struct {
	valid bool
	ver   uint64
}

// OracleConfig wires the oracle to a simulated system.
type OracleConfig struct {
	Engine *sim.Engine
	// CPUs lists the CorePair L2s in probe-target order.
	CPUs []*corepair.CorePair
	// GPU is the TCC complex; may be nil in CPU-only systems.
	GPU *gpucache.GPUCaches
	// Dir is the monolithic directory (or bank 0 of a banked one).
	Dir *core.Directory
	// DirFor, when non-nil, routes a line to its directory bank so the
	// directory cross-checks work on address-interleaved banked
	// directories (system.BankFor). Nil means every line lives in Dir.
	DirFor func(cachearray.LineAddr) *core.Directory
	Opts   core.Options
	// ReadOnly, when non-nil under Opts.ReadOnlyElision, reports lines
	// the workload declared read-only: the directory intentionally
	// leaves them untracked (§IX), so the inclusivity rules skip them.
	ReadOnly func(cachearray.LineAddr) bool
	// Report receives violations; the default panics with the violation,
	// matching the controllers' own defensive checks. The model checker
	// substitutes a recorder.
	Report func(v *core.ProtocolViolation)
}

// Oracle is the runtime coherence checker. It observes every message
// delivery (noc.DeliveryHook) and every CPU load/store retirement
// (cpu.Observer) and asserts:
//
//   - The coherence invariants of the delivered line (CheckLine): SWMR,
//     single-owner, stale-victim and, on tracking directories, directory
//     inclusivity. (The TCC is exempt: VIPER allows stale GPU copies
//     until an acquire.)
//   - Data-value: a load retires with a line version at least as new as
//     the line's global version when the load issued. Versions advance
//     at store serialization points (CPU store/atomic retirement, WT /
//     Atomic / DMA-write commits at the directory).
//   - Mirror consistency: the oracle's message-derived mirror of each
//     L2 agrees with the real cache (modulo victim-buffer windows).
//
// The version bookkeeping is deliberately conservative (monotone max
// merges), so it never flags a legal execution; some exotic stale-data
// bugs can slip through, but all the single-step mutations exercised by
// the checker's negative tests are caught.
type Oracle struct {
	cfg       OracleConfig
	cpuByNode map[msg.NodeID]*corepair.CorePair

	lineVer map[cachearray.LineAddr]uint64
	homeVer map[cachearray.LineAddr]uint64
	copies  map[msg.NodeID]map[cachearray.LineAddr]copyState

	// pendingPrb records a probe delivered to a CPU whose acknowledgment
	// is still outstanding. The mirror effect (surrendering the copy's
	// version to home, dropping the copy on an invalidation) applies at
	// PrbAck delivery, not probe delivery: the L2 may defer probe
	// processing while a store hit sits in its commit window, and the
	// data that flows home is whatever the cache holds when it finally
	// acknowledges.
	pendingPrb map[prbKey]msg.Type // cleared when the PrbAck is observed

	// view and breaches are checkLine's reused buffers, so a clean
	// delivery allocates nothing.
	view     LineView
	breaches []Breach

	checks uint64
}

// prbKey identifies an outstanding probe at a CPU cache.
type prbKey struct {
	node msg.NodeID
	line cachearray.LineAddr
}

// NewOracle creates an oracle. Attach it with
// ic.SetDeliveryHook(o.OnDeliver) and cpu.Config{Observer: o}.
func NewOracle(cfg OracleConfig) *Oracle {
	o := &Oracle{
		cfg:        cfg,
		cpuByNode:  make(map[msg.NodeID]*corepair.CorePair),
		lineVer:    make(map[cachearray.LineAddr]uint64),
		homeVer:    make(map[cachearray.LineAddr]uint64),
		copies:     make(map[msg.NodeID]map[cachearray.LineAddr]copyState),
		pendingPrb: make(map[prbKey]msg.Type),
	}
	for _, cp := range cfg.CPUs {
		o.cpuByNode[cp.NodeID()] = cp
		o.copies[cp.NodeID()] = make(map[cachearray.LineAddr]copyState)
	}
	o.view.L2 = make([]L2Copy, len(cfg.CPUs))
	if o.cfg.Report == nil {
		o.cfg.Report = func(v *core.ProtocolViolation) { panic(v) }
	}
	o.Reset(cfg.Opts)
	return o
}

// Reset returns the oracle to the state NewOracle builds, checking the
// protocol variant opts: no line versions, copies or outstanding
// probes, and no checks counted. It keeps its wiring and its maps'
// storage.
func (o *Oracle) Reset(opts core.Options) {
	o.cfg.Opts = opts
	clear(o.lineVer)
	clear(o.homeVer)
	for _, m := range o.copies { //hsclint:deterministic — clears every inner map, in any order
		clear(m)
	}
	clear(o.pendingPrb)
	clear(o.view.L2)
	o.view = LineView{L2: o.view.L2}
	o.breaches = o.breaches[:0]
	o.checks = 0
}

// Checks returns the number of per-delivery invariant sweeps performed.
func (o *Oracle) Checks() uint64 { return o.checks }

func (o *Oracle) isCPU(n msg.NodeID) bool { _, ok := o.cpuByNode[n]; return ok }

// dirFor resolves the directory bank owning a line.
func (o *Oracle) dirFor(line cachearray.LineAddr) *core.Directory {
	if o.cfg.DirFor != nil {
		return o.cfg.DirFor(line)
	}
	return o.cfg.Dir
}

// mergeHome folds a surrendered CPU copy's version into the home
// (LLC/memory) version. Clean copies never exceed homeVer, so the max
// is exact for dirty data and a no-op for clean data.
func (o *Oracle) mergeHome(n msg.NodeID, line cachearray.LineAddr) {
	if c := o.copies[n][line]; c.valid && c.ver > o.homeVer[line] {
		o.homeVer[line] = c.ver
	}
}

// serializeWrite advances the line version for a write that commits at
// the directory (WT, system-scope atomic, DMA write) and makes home
// current.
func (o *Oracle) serializeWrite(line cachearray.LineAddr) {
	o.lineVer[line]++
	o.homeVer[line] = o.lineVer[line]
}

// OnDeliver implements noc.DeliveryHook: the destination handler has
// already processed m.
func (o *Oracle) OnDeliver(_ sim.Tick, m msg.Message) {
	switch m.Type {
	case msg.Flush, msg.FlushAck:
		return // no line association
	case msg.Resp:
		if o.isCPU(m.Dst) {
			o.copies[m.Dst][m.Addr] = copyState{valid: true, ver: o.homeVer[m.Addr]}
		}
	case msg.PrbInv, msg.PrbDowngrade:
		// The mirror effect waits for the acknowledgment: the probed L2
		// may be holding the probe behind a store-commit window, and the
		// version that flows home is the one it holds when it acks.
		if o.isCPU(m.Dst) {
			o.pendingPrb[prbKey{m.Dst, m.Addr}] = m.Type
		}
	case msg.PrbAck:
		if o.isCPU(m.Src) {
			k := prbKey{m.Src, m.Addr}
			if t, ok := o.pendingPrb[k]; ok {
				delete(o.pendingPrb, k)
				o.mergeHome(m.Src, m.Addr)
				if t == msg.PrbInv {
					delete(o.copies[m.Src], m.Addr)
				}
			}
		}
	case msg.VicDirty, msg.VicClean:
		if o.isCPU(m.Src) {
			o.mergeHome(m.Src, m.Addr)
			delete(o.copies[m.Src], m.Addr)
		}
	case msg.WBAck:
		// A WBAck to the TCC commits a write-through; to the DMA engine,
		// a DMA write. To a CPU it merely retires a victim (whose version
		// was merged when the VicDirty/VicClean was delivered).
		if !o.isCPU(m.Dst) {
			o.serializeWrite(m.Addr)
		}
	case msg.AtomicResp:
		o.serializeWrite(m.Addr)
	default:
		// Requests and remaining replies don't move the version mirror;
		// they still trigger the line-state check below.
	}
	o.checkLine(m.Addr, &m)
}

// LoadIssued implements cpu.Observer: the token is the line version at
// issue time.
func (o *Oracle) LoadIssued(_ msg.NodeID, line cachearray.LineAddr) uint64 {
	return o.lineVer[line]
}

// LoadRetired implements cpu.Observer: the core's copy must be at least
// as new as the line was when the load issued.
func (o *Oracle) LoadRetired(node msg.NodeID, line cachearray.LineAddr, token uint64) {
	c := o.copies[node][line]
	if c.valid && c.ver < token {
		o.report("data-value", line, nil, fmt.Sprintf(
			"load on node %d retired with version %d, but the line was at version %d when the load issued",
			node, c.ver, token))
	}
}

// StoreRetired implements cpu.Observer: the store is the line's new
// latest version and the storing cache holds it.
func (o *Oracle) StoreRetired(node msg.NodeID, line cachearray.LineAddr) {
	o.lineVer[line]++
	if c := o.copies[node][line]; c.valid {
		o.copies[node][line] = copyState{valid: true, ver: o.lineVer[line]}
	}
	// A probe that raced the retirement leaves the mirror invalid; the
	// version bump alone keeps later checks sound.
}

// checkLine sweeps the per-delivery invariants for one line.
func (o *Oracle) checkLine(line cachearray.LineAddr, m *msg.Message) {
	o.checks++

	v := &o.view
	for i, cp := range o.cfg.CPUs {
		wb, _ := cp.WBState(line)
		v.L2[i] = L2Copy{State: cp.L2State(line), Victim: wb}
	}
	v.ReadDirectory(o.dirFor(line), line, o.cfg.Opts, o.cfg.ReadOnly)
	o.breaches = CheckLine(o.breaches[:0], v)
	for _, b := range o.breaches {
		o.report(b.Rule, line, m, b.Detail)
	}

	// Mirror consistency. A pending probe opens a legal window in both
	// directions: the cache may have invalidated already (the mirror
	// surrenders the copy only at the acknowledgment), or may still be
	// deferring the probe behind a store-commit window.
	for i, cp := range o.cfg.CPUs {
		n := cp.NodeID()
		if _, probing := o.pendingPrb[prbKey{n, line}]; probing {
			continue
		}
		real := v.L2[i].State != corepair.Invalid
		mirror := o.copies[n][line].valid
		if real && !mirror {
			o.report("mirror", line, m, fmt.Sprintf(
				"node %d holds the line but the oracle never saw it filled", n))
		}
		if mirror && !real && !v.L2[i].Victim {
			o.report("mirror", line, m, fmt.Sprintf(
				"oracle believes node %d holds the line but it is neither cached nor in the victim buffer", n))
		}
	}
}

// CheckFinal asserts the quiescent-state invariants once the system has
// drained: every surviving CPU copy holds the line's latest version,
// and untouched-by-any-cache lines have a current home. It returns the
// first violation instead of reporting, so callers decide whether to
// panic.
func (o *Oracle) CheckFinal() *core.ProtocolViolation {
	lines := make(map[cachearray.LineAddr]bool)
	for l := range o.lineVer { //hsclint:deterministic — collected into a sorted slice
		lines[l] = true
	}
	for _, byLine := range o.copies { //hsclint:deterministic — collected into a sorted slice
		for l := range byLine { //hsclint:deterministic — collected into a sorted slice
			lines[l] = true
		}
	}
	sorted := make([]cachearray.LineAddr, 0, len(lines))
	for l := range lines { //hsclint:deterministic — sorted below
		sorted = append(sorted, l)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, line := range sorted {
		anyHolder := false
		for _, cp := range o.cfg.CPUs {
			n := cp.NodeID()
			c := o.copies[n][line]
			wb, _ := cp.WBState(line)
			if c.valid || wb || cp.L2State(line) != corepair.Invalid {
				anyHolder = true
			}
			if c.valid && c.ver != o.lineVer[line] {
				return o.violation("final-stale-copy", line, nil, fmt.Sprintf(
					"node %d still holds version %d of a line at version %d", n, c.ver, o.lineVer[line]))
			}
		}
		if !anyHolder && o.homeVer[line] != o.lineVer[line] {
			return o.violation("final-lost-write", line, nil, fmt.Sprintf(
				"no cache holds the line but home is at version %d, latest is %d",
				o.homeVer[line], o.lineVer[line]))
		}
	}
	return nil
}

// violation builds a report with the full per-agent state dump.
func (o *Oracle) violation(rule string, line cachearray.LineAddr, m *msg.Message, detail string) *core.ProtocolViolation {
	v := &core.ProtocolViolation{
		Rule:   rule,
		Line:   line,
		Detail: detail,
	}
	if o.cfg.Engine != nil {
		v.Cycle = o.cfg.Engine.Now()
	}
	if m != nil {
		v.Msg = m.String()
		v.TxnID = m.TxnID
	}
	for i, cp := range o.cfg.CPUs {
		n := cp.NodeID()
		wb, wbDirty := cp.WBState(line)
		c := o.copies[n][line]
		v.States = append(v.States, core.AgentState{
			Agent: fmt.Sprintf("l2[%d]", i),
			State: fmt.Sprintf("state=%s wb=%v(dirty=%v) mirror={valid=%v ver=%d}",
				cp.L2State(line), wb, wbDirty, c.valid, c.ver),
		})
	}
	if o.cfg.GPU != nil {
		v.States = append(v.States, core.AgentState{
			Agent: "tcc",
			State: fmt.Sprintf("present=%v dirty=%v", o.cfg.GPU.TCCHas(line), o.cfg.GPU.TCCDirty(line)),
		})
	}
	if dir := o.dirFor(line); dir != nil {
		v.States = append(v.States, core.AgentState{Agent: "dir", State: dir.LineFingerprint(line)})
	}
	v.States = append(v.States, core.AgentState{
		Agent: "oracle",
		State: fmt.Sprintf("lineVer=%d homeVer=%d", o.lineVer[line], o.homeVer[line]),
	})
	return v
}

func (o *Oracle) report(rule string, line cachearray.LineAddr, m *msg.Message, detail string) {
	o.cfg.Report(o.violation(rule, line, m, detail))
}
