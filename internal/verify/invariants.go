package verify

import (
	"fmt"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
)

// The coherence invariants of one line, stated once. The runtime
// oracle checks them after every message delivery, the static prover
// (internal/protocheck) on every reachable abstract state, and
// system.CheckCoherence on every cached line at quiescence; each builds
// a LineView and calls CheckLine.

// L2Copy is one CPU L2's hold on a line.
type L2Copy struct {
	State  corepair.MOESI
	Victim bool // the L2's victim buffer holds the line, awaiting its WBAck
}

// LineView is everything the invariants read about one line. The TCC
// is absent: VIPER keeps no CPU-coherent dirty state and evicts clean
// lines silently, so its copies are conservative by design.
type LineView struct {
	L2 []L2Copy // the CPU L2s, in probe-target order

	// Entries says the directory's entry rules apply: the directory
	// tracks lines, no transaction is in flight on this one (they pass
	// through inconsistent transient states), and it is not a read-only
	// line the directory leaves untracked (§IX).
	Entries bool
	Entry   byte   // the entry's state: 'I' (none), 'S' or 'O'
	Owner   int    // the O entry's owner, an index into L2; -1 for none
	Sharers uint64 // sharer bits, indexed like L2
	Exact   bool   // the sharer bits name every holder: a full map, no LimitedPointers
}

// ReadDirectory fills v's directory side for line from dir, the bank
// that homes it, under opts; readOnly, which may be nil, reports the
// lines the workload declared read-only.
func (v *LineView) ReadDirectory(dir *core.Directory, line cachearray.LineAddr, opts core.Options, readOnly func(cachearray.LineAddr) bool) {
	v.Entries = opts.Tracking != core.TrackNone && !dir.LineBusy(line) &&
		!(opts.ReadOnlyElision && readOnly != nil && readOnly(line))
	if !v.Entries {
		return
	}
	st, owner, sharers := dir.EntryState(line)
	v.Entry, v.Owner, v.Sharers = st[0], owner, sharers
	v.Exact = opts.Tracking == core.TrackOwnerSharers && opts.LimitedPointers == 0
}

// Breach is one rule a line breaks.
type Breach struct {
	Rule   string // "swmr", "single-owner", "stale-victim" or "inclusivity"
	Detail string
}

func (b Breach) String() string { return b.Rule + ": " + b.Detail }

// CheckLine appends to out every rule v breaks and returns it; a clean
// line allocates nothing. The rules:
//
//   - swmr: an L2 holding the line Exclusive or Modified is its only
//     holder.
//   - single-owner: at most one L2 holds it Owned.
//   - stale-victim: no L2 holds it while its own victim buffer does
//     (probes would be answered from the stale victim while the cached
//     copy keeps its grant).
//   - inclusivity (v.Entries only): every held copy has an entry; an
//     E, M or O copy is the tracked owner of an O entry; under an exact
//     sharer map every other holder is a sharer; and an O entry's owner
//     holds the line, cached or in its victim buffer.
func CheckLine(out []Breach, v *LineView) []Breach {
	exclusive, owned, valid := 0, 0, 0
	for _, c := range v.L2 {
		switch c.State {
		case corepair.Invalid:
			continue
		case corepair.Exclusive, corepair.Modified:
			exclusive++
		case corepair.Owned:
			owned++
		}
		valid++
	}
	if exclusive > 1 || exclusive == 1 && valid > 1 {
		out = append(out, Breach{"swmr", fmt.Sprintf(
			"%d exclusive holder(s) among %d valid CPU copies", exclusive, valid)})
	}
	if owned > 1 {
		out = append(out, Breach{"single-owner", fmt.Sprintf("%d Owned copies", owned)})
	}
	for i, c := range v.L2 {
		if c.State == corepair.Invalid {
			continue
		}
		if c.Victim {
			out = append(out, Breach{"stale-victim", fmt.Sprintf(
				"L2 %d holds the line %s while its victim buffer holds it too", i, c.State)})
		}
		if !v.Entries {
			continue
		}
		switch {
		case v.Entry == 'I':
			out = append(out, Breach{"inclusivity", fmt.Sprintf(
				"L2 %d holds the line %s but the directory tracks nothing", i, c.State)})
		case c.State != corepair.Shared && (v.Entry != 'O' || v.Owner != i):
			out = append(out, Breach{"inclusivity", fmt.Sprintf(
				"L2 %d holds the line %s but the entry is %c with owner %d", i, c.State, v.Entry, v.Owner)})
		case v.Exact && v.Owner != i && v.Sharers&(1<<uint(i)) == 0:
			out = append(out, Breach{"inclusivity", fmt.Sprintf(
				"L2 %d holds the line %s but is neither owner nor sharer (entry %c owner=%d sharers=%#x)",
				i, c.State, v.Entry, v.Owner, v.Sharers)})
		}
	}
	if v.Entries && v.Entry == 'O' &&
		(v.Owner < 0 || v.Owner >= len(v.L2) || v.L2[v.Owner].State == corepair.Invalid && !v.L2[v.Owner].Victim) {
		out = append(out, Breach{"inclusivity", fmt.Sprintf(
			"entry is O with owner %d but the owner holds nothing (not cached, not in the victim buffer)", v.Owner)})
	}
	return out
}
