// Package protocheck is the static protocol safety analyzer. It
// consumes the statically extracted transition tables (internal/proto)
// and proves these properties without running the simulator:
//
//   - reach.go: composite-state reachability. An abstract model of one
//     cache line — two CPU L2 agents, the TCC, the DMA engine and the
//     directory, each reduced to its protocol-visible state plus the
//     in-flight messages between them — is explored exhaustively from
//     the quiescent state. Every reachable composite state is checked
//     against the coherence invariants the runtime oracle and
//     system.CheckCoherence check too (verify.CheckLine); a violation
//     comes with the minimal abstract trace that produces it. Each abstract step
//     is labeled with the transition-table arm it animates, and the
//     step relation is cross-checked against the extracted table in
//     both directions.
//
//   - deadlock.go: message-class dependency graph. Every table arm is
//     assigned the virtual-network class of the message it handles;
//     arm emissions and transaction-blocking ("handling X awaits Y")
//     relations become class-level edges. The protocol is deadlock-free
//     on finite virtual networks only if the graph is acyclic.
//
// observe.go closes the loop dynamically: it projects a running
// system's per-line state onto the abstract composite state at every
// message-delivery instant, so a conformance campaign can assert that
// everything the simulator actually does is contained in the statically
// computed reachable set (soundness of the abstraction).
package protocheck

import (
	"fmt"

	"hscsim/internal/proto"
)

// Finding is one problem reported by an analysis.
type Finding struct {
	Analysis string // "reach", "deadlock"
	Machine  string // table machine, or "" for cross-machine findings
	Detail   string
}

func (f Finding) String() string {
	if f.Machine == "" {
		return fmt.Sprintf("[%s] %s", f.Analysis, f.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Analysis, f.Machine, f.Detail)
}

// armRef names one transition arm of one machine.
type armRef struct {
	Machine string
	Key     proto.TKey
}

func (a armRef) String() string { return fmt.Sprintf("%s %s", a.Machine, a.Key) }

// entryOf resolves an armRef in the table, or nil.
func entryOf(t *proto.Table, a armRef) *proto.Entry {
	m := t.Machine(a.Machine)
	if m == nil {
		return nil
	}
	return m.Entry(a.Key)
}
