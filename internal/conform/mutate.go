package conform

import (
	"hscsim/internal/msg"
	"hscsim/internal/noc"
)

// This file is the fault-injection library: each mutator is a small,
// named protocol weakening seeded into one cell's interconnect
// (system.Config.Mutate) or the model checker (verify.Config.Mutate).
// All of them are pure functions of the message, as the replay-based
// search requires. WeakenProbes (minimize.go) is the canonical fourth.

// DropDirtyProbeAck drops every probe acknowledgment that carries
// modified data. The directory's transaction then waits forever for the
// owner's response (or, with early dirty response, the requester never
// receives its data): the weakening surfaces as a livelock the model
// checker's drain check reports, and as a wedged run the differential
// harness reports as a tick-budget failure.
func DropDirtyProbeAck(m msg.Message) (msg.Message, bool) {
	if m.Type == msg.PrbAck && m.Dirty {
		return m, false
	}
	return m, true
}

// ReorderVictims models victim write-backs reordered behind demand
// traffic, in the limiting case: the victim is delayed forever
// (dropped). Demand requests keep outrunning it — probes are answered
// from the evictor's victim buffer, so reads stay coherent — but the
// directory never acknowledges the write-back, and the evicting cache's
// next access to the line stalls on the WBAck that cannot arrive. The
// model checker reports the wedge as a deadlock; the differential
// harness as a tick-budget failure.
func ReorderVictims(m msg.Message) (msg.Message, bool) {
	if m.Type == msg.VicDirty || m.Type == msg.VicClean {
		return m, false
	}
	return m, true
}

// StaleSharerMask returns a mutator that models one sharer missing
// from a full-map directory's sharer mask: every invalidating probe
// bound for node is demoted to a downgrade, so that cache keeps a
// Shared copy the directory believes invalidated. The next write the
// directory grants violates SWMR, which the oracle reports.
func StaleSharerMask(node msg.NodeID) noc.Mutator {
	return func(m msg.Message) (msg.Message, bool) {
		if m.Type == msg.PrbInv && m.Dst == node {
			m.Type = msg.PrbDowngrade
		}
		return m, true
	}
}

// Weakenings is the named registry of seeded protocol bugs, for
// harnesses that sweep the whole library. The stale-sharer-mask entry
// targets node 1 (the second CorePair L2 in the checker harness).
func Weakenings() map[string]noc.Mutator {
	return map[string]noc.Mutator{
		"weaken-probes":     WeakenProbes,
		"drop-dirty-ack":    DropDirtyProbeAck,
		"reorder-victims":   ReorderVictims,
		"stale-sharer-mask": StaleSharerMask(1),
	}
}
