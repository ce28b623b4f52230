package protocheck

import (
	"fmt"
	"sort"
	"strings"

	"hscsim/internal/corepair"
	"hscsim/internal/verify"
)

// The abstract one-line protocol model.
//
// A composite state describes everything protocol-visible about ONE
// cache line: two CPU L2 agents (enough to distinguish "requester" from
// "other" — the conformance campaign that validates containment runs
// with two CorePairs), the TCC in its write-through mode, the DMA
// engine, the directory's per-line transaction state, and every message
// class in flight between them. Latencies, queue depths, the LLC and
// memory are abstracted away: memory is always ready, so the abstract
// transition "respond" may fire at any point after its protocol
// preconditions hold — a strict superset of the concrete timings.
//
// Message-in-flight bookkeeping rides on the endpoint that will receive
// or has sent it (a probe "fly" flag on the probed agent, a saturating
// outstanding-WT counter on the TCC, a response-phase on the missing
// agent), so the state needs no separate network component. Multi-entry
// queues saturate at 1 ("at least one outstanding"); decrementing a
// saturated counter branches nondeterministically, which keeps the
// abstraction sound for any concrete queue depth.
//
// Every successor carries the transition-table arm it animates, which
// couples the model to the extracted tables in both directions (see
// CrossCheckArms in reach.go).

// Mode is the abstract directory organization. The LLC-policy options
// (LLCWriteBack, UseL3OnWT, NoWBCleanVic*) act below the protocol
// abstraction — they change where committed data lands, never which
// messages or grants are produced — so the paper's six variants
// collapse onto {mode} × {EDR}.
type Mode int

// Abstract directory organizations.
const (
	ModeStateless Mode = iota
	ModeTrackOwner
	ModeTrackOwnerSharers
)

func (m Mode) String() string {
	switch m {
	case ModeStateless:
		return "stateless"
	case ModeTrackOwner:
		return "track-owner"
	default:
		return "track-owner-sharers"
	}
}

// Bug toggles seed known protocol bugs into the abstract semantics for
// the analyzer's negative tests: the checker must find the violation.
type Bug int

// Seeded bugs.
const (
	BugNone Bug = iota
	// BugVictimRefetch re-fetches a line that sits in the victim buffer
	// instead of stalling until the WBAck — the bug the cpu.l2 WB stall
	// arm exists to prevent (two live copies, a probe answered from the
	// stale victim).
	BugVictimRefetch
	// BugEvictDuringUpgrade lets a conflicting fill evict a line whose
	// upgrade RdBlkM is still outstanding — the unpinned-victim race
	// that corepair.fill prevents by pinning MSHR-resident lines.
	BugEvictDuringUpgrade
	// BugDropWake drops the WBAck wake: the L2 never retires its victim
	// buffer, so anything stalled behind the victim starves. A pure
	// liveness bug — no safety invariant ever breaks — caught only by
	// the -live lasso search.
	BugDropWake
	// BugSkipAck lets the directory respond before the probe acks of
	// the active transaction have drained: the grant races the
	// invalidations it depends on, and two Modified copies coexist.
	BugSkipAck
)

// ModelConfig selects the abstract variant to explore.
type ModelConfig struct {
	Mode Mode
	EDR  bool // EarlyDirtyResponse: respond on the first dirty downgrade ack
	Bug  Bug
}

func (c ModelConfig) String() string {
	s := c.Mode.String()
	if c.EDR {
		s += "+edr"
	}
	if c.Bug != BugNone {
		s += fmt.Sprintf("+bug%d", c.Bug)
	}
	return s
}

// ---------------------------------------------------------------------
// State components. All fields are single bytes so states hash and
// canonicalize cheaply.

// agent is one CPU L2's view of the line.
type agent struct {
	Cache byte // 'I','S','E','O','M'
	WBPh  byte // victim buffer: '-' none, 'o' Vic* outstanding, 'a' active at dir, 'f' WBAck in flight
	WBDty bool // victim-buffer copy dirty (VicDirty)
	Miss  byte // outstanding miss kind: '-' none, 'r' RdBlk, 's' RdBlkS, 'm' RdBlkM
	MissP byte // miss phase: '-', 'o' request outstanding, 'a' active at dir, or the granted response in flight: 'S','E','M'
	Prb   byte // '-' none, 'i' PrbInv in flight, 'd' PrbDowngrade in flight, ack in flight: 'n' no data, 'c' clean data, 'm' dirty data
	Unb   bool // Unblock in flight
	Own   bool // tracked directory entry names this agent owner
	Shr   bool // tracked directory entry lists this agent as sharer
}

// tccState is the (write-through) TCC's view of the line.
//
// Completion messages back to the TCC and DMA (WBAck, AtomicResp,
// FlushAck, Resp-to-DMA) only drain a counter at the receiver — they
// interact with no other protocol state — so their delivery is folded
// into the directory's respond step and they never appear in flight
// here. Likewise Flush never touches line state, so it is served as a
// single atomic step and has no counter. (The dynamic-containment
// observer projects concrete snapshots the same way.)
type tccState struct {
	Cache byte // 'I','V'
	MissP byte // RdBlk: '-', 'o' outstanding, 'a' active, 'r' Resp in flight
	Prb   byte // '-', 'i' PrbInv in flight (the directory never downgrade-probes the TCC), 'n' ack in flight (TCC acks carry no data)
	Wt    byte // WT outstanding (saturating: 0 or 1 = "at least one")
	At    byte // Atomic outstanding
	Shr   bool // tracked entry lists the TCC as sharer
}

// dmaState is the DMA engine's view of the line.
type dmaState struct {
	Rd byte // DMARd outstanding (saturating)
	Wr byte // DMAWr outstanding
}

// dirLine is the directory's per-line transaction and tracking state.
type dirLine struct {
	Busy  byte // '-', or the active transaction: 'R' CPU read, 'T' TCC read, 'V' victim, 'W' WT, 'A' Atomic, 'r' DMARd, 'w' DMAWr, 'E' entry eviction (back-inval)
	Prbd  bool // probes for the active transaction have been sent
	GotD  bool // some ack carried data
	GotM  bool // some ack carried dirty data
	Rspd  bool // response sent (possibly early, §III-A)
	Entry byte // tracked entry: '-' (absent/I), 'S', 'O'
}

// state is one composite abstract state. The two agents are kept in
// canonical (sorted) order when symmetry reduction is on — see
// canon() and pack() in canon.go.
type state struct {
	Ag  [2]agent
	TCC tccState
	DMA dmaState
	Dir dirLine
}

// initial returns the quiescent state: everything invalid and idle.
func initial() state {
	mk := func() agent {
		return agent{Cache: 'I', WBPh: '-', Miss: '-', MissP: '-', Prb: '-'}
	}
	return state{
		Ag:  [2]agent{mk(), mk()},
		TCC: tccState{Cache: 'I', MissP: '-', Prb: '-', Wt: '0', At: '0'},
		DMA: dmaState{Rd: '0', Wr: '0'},
		Dir: dirLine{Busy: '-', Entry: '-'},
	}
}

// String renders a state compactly for traces and failure messages.
func (s state) String() string {
	agStr := func(a agent) string {
		parts := []byte{a.Cache}
		out := string(parts)
		if a.WBPh != '-' {
			d := "c"
			if a.WBDty {
				d = "d"
			}
			out += fmt.Sprintf(" wb(%s,%c)", d, a.WBPh)
		}
		if a.Miss != '-' {
			out += fmt.Sprintf(" miss(%c,%c)", a.Miss, a.MissP)
		}
		if a.Prb != '-' {
			out += fmt.Sprintf(" prb(%c)", a.Prb)
		}
		if a.Unb {
			out += " unb"
		}
		if a.Own {
			out += " own"
		}
		if a.Shr {
			out += " shr"
		}
		return out
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cpu0[%s] cpu1[%s]", agStr(s.Ag[0]), agStr(s.Ag[1]))
	t := s.TCC
	fmt.Fprintf(&b, " tcc[%c", t.Cache)
	if t.MissP != '-' {
		fmt.Fprintf(&b, " miss(%c)", t.MissP)
	}
	if t.Prb != '-' {
		fmt.Fprintf(&b, " prb(%c)", t.Prb)
	}
	for _, c := range []struct {
		n string
		v byte
	}{{"wt", t.Wt}, {"at", t.At}} {
		if c.v != '0' {
			fmt.Fprintf(&b, " %s(%c)", c.n, c.v)
		}
	}
	if t.Shr {
		b.WriteString(" shr")
	}
	b.WriteString("]")
	d := s.DMA
	if d.Rd != '0' || d.Wr != '0' {
		fmt.Fprintf(&b, " dma[rd(%c) wr(%c)]", d.Rd, d.Wr)
	}
	dir := s.Dir
	fmt.Fprintf(&b, " dir[%c", dir.Busy)
	if dir.Prbd {
		b.WriteString(" probed")
	}
	if dir.GotD {
		b.WriteString(" data")
	}
	if dir.GotM {
		b.WriteString(" dirty")
	}
	if dir.Rspd {
		b.WriteString(" responded")
	}
	if dir.Entry != '-' {
		fmt.Fprintf(&b, " entry=%c", dir.Entry)
	}
	b.WriteString("]")
	return b.String()
}

// stable reports whether s is a quiescent composite state: no
// transaction, miss, victim, probe or counter in flight anywhere. These
// are exactly the states the dynamic-containment observer (observe.go)
// can project from a concrete snapshot of a quiescent line.
func (s state) stable() bool {
	for _, a := range s.Ag {
		if a.WBPh != '-' || a.Miss != '-' || a.MissP != '-' || a.Prb != '-' || a.Unb {
			return false
		}
	}
	t := s.TCC
	if t.MissP != '-' || t.Prb != '-' || t.Wt != '0' || t.At != '0' {
		return false
	}
	if s.DMA.Rd != '0' || s.DMA.Wr != '0' {
		return false
	}
	return s.Dir.Busy == '-'
}

// ---------------------------------------------------------------------
// Invariants: every reachable state is checked against the coherence
// invariants the runtime oracle and system.CheckCoherence check too
// (verify.CheckLine).

// moesi maps the model's cache letters to the L2's states.
var moesi = [256]corepair.MOESI{'S': corepair.Shared, 'E': corepair.Exclusive, 'O': corepair.Owned, 'M': corepair.Modified}

// violations returns every coherence rule the state breaks.
func (s state) violations(cfg ModelConfig) []string {
	var l2 [2]verify.L2Copy
	v := verify.LineView{
		L2:      l2[:],
		Entries: cfg.Mode != ModeStateless && s.Dir.Busy == '-',
		Entry:   'I',
		Owner:   -1,
		Exact:   cfg.Mode == ModeTrackOwnerSharers,
	}
	if s.Dir.Entry != '-' {
		v.Entry = s.Dir.Entry
	}
	for i, a := range s.Ag {
		l2[i] = verify.L2Copy{State: moesi[a.Cache], Victim: a.WBPh != '-'}
		if a.Own {
			v.Owner = i
		}
		if a.Shr {
			v.Sharers |= 1 << i
		}
	}
	var out []string
	for _, b := range verify.CheckLine(nil, &v) {
		out = append(out, b.String())
	}
	return out
}

// structural panics catch modeling bugs (not protocol bugs): these
// combinations are unrepresentable by construction.
func (s state) assertStructure() {
	active := 0
	for _, a := range s.Ag {
		if a.MissP == 'a' {
			active++
		}
		if a.WBPh == 'a' {
			active++
		}
	}
	if s.TCC.MissP == 'a' {
		active++
	}
	// The requester stays marked active until the response is sent ('V'
	// services atomically, so its active mark always accompanies Busy).
	busyNeedsActive := (s.Dir.Busy == 'R' || s.Dir.Busy == 'T') && !s.Dir.Rspd || s.Dir.Busy == 'V'
	if busyNeedsActive && active != 1 {
		panic(fmt.Sprintf("model bug: busy %c with %d active requesters in %s", s.Dir.Busy, active, s))
	}
	if !busyNeedsActive && active != 0 {
		panic(fmt.Sprintf("model bug: %d active requesters without a requester-marked txn in %s", active, s))
	}
	owners := 0
	for _, a := range s.Ag {
		if a.Own {
			owners++
		}
	}
	if owners > 1 {
		panic(fmt.Sprintf("model bug: two tracked owners in %s", s))
	}
	if s.Dir.Entry == '-' && (owners > 0 || s.Ag[0].Shr || s.Ag[1].Shr || s.TCC.Shr) {
		panic(fmt.Sprintf("model bug: tracking flags without an entry in %s", s))
	}
}

// sortedStrings returns a sorted copy (small helper for deterministic
// reporting).
func sortedStrings(xs []string) []string {
	out := append([]string{}, xs...)
	sort.Strings(out)
	return out
}
