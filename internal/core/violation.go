package core

import (
	"fmt"
	"sort"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/sim"
)

// MemPort is the directory's interface to the main-memory controller.
// The production implementation is *memctrl.Controller; the model
// checker in internal/verify substitutes a port that buffers read
// completions so their ordering can be explored exhaustively.
type MemPort interface {
	// Read fetches a line and completes with h.OnEvent(kind, uint64(addr),
	// obj) once the data is available.
	Read(addr cachearray.LineAddr, h sim.Handler, kind uint8, obj any)
	// Write posts a line write; nothing waits for it.
	Write(addr cachearray.LineAddr)
}

// AgentState is one agent's view of a line, captured when a protocol
// violation is detected.
type AgentState struct {
	Agent string // e.g. "dir", "l2[0]", "tcc[0]"
	State string // free-form state description
}

// ProtocolViolation is a structured coherence-protocol failure. The
// controllers panic with *ProtocolViolation instead of a bare string so
// that the model checker can recover it as a counterexample and so that
// crash output carries the cycle, transaction, and per-agent state
// needed to diagnose the bug.
type ProtocolViolation struct {
	Rule   string   // invariant or internal check that failed
	Cycle  sim.Tick // simulation tick at detection
	Line   cachearray.LineAddr
	TxnID  uint64       // directory transaction, when applicable
	Msg    string       // message being processed, when applicable
	Detail string       // human-readable specifics
	States []AgentState // per-agent state dump
}

// Error implements the error interface.
func (v *ProtocolViolation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol violation [%s] cycle=%d line=%#x", v.Rule, v.Cycle, uint64(v.Line))
	if v.TxnID != 0 {
		fmt.Fprintf(&b, " txn=%d", v.TxnID)
	}
	if v.Msg != "" {
		fmt.Fprintf(&b, " msg=%q", v.Msg)
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	for _, s := range v.States {
		fmt.Fprintf(&b, "\n  %-8s %s", s.Agent, s.State)
	}
	return b.String()
}

// String implements fmt.Stringer so a recovered panic value prints the
// full report even when formatted with %v.
func (v *ProtocolViolation) String() string { return v.Error() }

// stateDump captures the directory's per-line view for a violation
// report: the in-flight transaction, queued requests, tracking-entry
// state and LLC state for the offending line.
func (d *Directory) stateDump(addr cachearray.LineAddr) []AgentState {
	var out []AgentState
	if t, ok := d.txns.Get(addr); ok {
		out = append(out, AgentState{Agent: "dir.txn", State: fmt.Sprintf(
			"id=%d req=%s pendingAcks=%d responded=%v memIssued=%v memDone=%v unblocked=%v eviction=%v",
			t.id, t.req.Type, t.pendingAcks, t.responded, t.memIssued, t.memDone, t.unblocked, t.eviction)})
	} else {
		out = append(out, AgentState{Agent: "dir.txn", State: "none"})
	}
	if q := d.pend.At(addr); len(q) > 0 {
		types := make([]string, len(q))
		for i, m := range q {
			types[i] = m.Type.String()
		}
		out = append(out, AgentState{Agent: "dir.pend", State: strings.Join(types, ",")})
	}
	st, owner, sharers := d.EntryState(addr)
	out = append(out, AgentState{Agent: "dir.entry", State: fmt.Sprintf("state=%s owner=%d sharers=%#x", st, owner, sharers)})
	out = append(out, AgentState{Agent: "llc", State: fmt.Sprintf("present=%v dirty=%v", d.llc.present(addr), d.llc.dirtyLine(addr))})
	// Other lines with in-flight transactions, for cross-line deadlocks.
	var busy []uint64
	d.txns.ForEach(func(a cachearray.LineAddr, _ **txn) {
		if a != addr {
			busy = append(busy, uint64(a))
		}
	})
	sort.Slice(busy, func(i, j int) bool { return busy[i] < busy[j] })
	if len(busy) > 0 {
		parts := make([]string, len(busy))
		for i, a := range busy {
			parts[i] = fmt.Sprintf("%#x", a)
		}
		out = append(out, AgentState{Agent: "dir.busy", State: strings.Join(parts, ",")})
	}
	return out
}

// violate panics with a structured ProtocolViolation for the directory.
func (d *Directory) violate(rule string, addr cachearray.LineAddr, txnID uint64, m fmt.Stringer, detail string) {
	v := &ProtocolViolation{
		Rule:   rule,
		Cycle:  d.engine.Now(),
		Line:   addr,
		TxnID:  txnID,
		Detail: detail,
		States: d.stateDump(addr),
	}
	if m != nil {
		v.Msg = m.String()
	}
	panic(v)
}
