package verify

import (
	"slices"
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/msg"
)

// TestCheckLine: one view per rule, each breaking only that rule, and
// legal views that must pass.
func TestCheckLine(t *testing.T) {
	const (
		I = corepair.Invalid
		S = corepair.Shared
		E = corepair.Exclusive
		O = corepair.Owned
		M = corepair.Modified
	)
	l2 := func(states ...corepair.MOESI) []L2Copy {
		out := make([]L2Copy, len(states))
		for i, st := range states {
			out[i].State = st
		}
		return out
	}
	// tracked is a full-map entry in state e with the given owner and
	// sharer bits.
	tracked := func(e byte, owner int, sharers uint64, copies []L2Copy) LineView {
		return LineView{L2: copies, Entries: true, Entry: e, Owner: owner, Sharers: sharers, Exact: true}
	}
	victim := l2(S, I)
	victim[0].Victim = true
	ownerEvicting := l2(I, S)
	ownerEvicting[0].Victim = true
	for _, tc := range []struct {
		name string
		v    LineView
		want []Breach // nil: the view is legal
	}{
		{"two exclusive", LineView{L2: l2(M, E)}, []Breach{
			{"swmr", "2 exclusive holder(s) among 2 valid CPU copies"}}},
		{"exclusive beside a sharer", LineView{L2: l2(S, I, E)}, []Breach{
			{"swmr", "1 exclusive holder(s) among 2 valid CPU copies"}}},
		{"two owned", LineView{L2: l2(O, S, O)}, []Breach{
			{"single-owner", "2 Owned copies"}}},
		{"stale victim", LineView{L2: victim}, []Breach{
			{"stale-victim", "L2 0 holds the line S while its victim buffer holds it too"}}},
		{"untracked copy", tracked('I', -1, 0, l2(I, S)), []Breach{
			{"inclusivity", "L2 1 holds the line S but the directory tracks nothing"}}},
		{"exclusive under an S entry", tracked('S', -1, 0b1, l2(E)), []Breach{
			{"inclusivity", "L2 0 holds the line E but the entry is S with owner -1"}}},
		{"owned copy not the owner", tracked('O', 1, 0b1, l2(O, S)), []Breach{
			{"inclusivity", "L2 0 holds the line O but the entry is O with owner 1"}}},
		{"holder missing from the sharers", tracked('O', 0, 0b10, l2(O, S, S)), []Breach{
			{"inclusivity", "L2 2 holds the line S but is neither owner nor sharer (entry O owner=0 sharers=0x2)"}}},
		{"owner holds nothing", tracked('O', 1, 0b1, l2(S, I)), []Breach{
			{"inclusivity", "entry is O with owner 1 but the owner holds nothing (not cached, not in the victim buffer)"}}},

		{"empty line", LineView{L2: l2(I, I)}, nil},
		{"O with tracked sharers", tracked('O', 0, 0b110, l2(O, S, S)), nil},
		{"owner with its line in the victim buffer", tracked('O', 0, 0b10, ownerEvicting), nil},
		{"untracked read-only line", LineView{L2: l2(S, S), Entry: 'I', Owner: -1}, nil},
		{"limited pointers", LineView{L2: l2(S, S, S), Entries: true, Entry: 'S', Owner: -1, Sharers: 0b1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := CheckLine(nil, &tc.v); !slices.Equal(got, tc.want) {
				t.Errorf("CheckLine = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestCleanDeliveryAllocatesNothing: the oracle runs the check on every
// delivery, so a clean one must not allocate.
func TestCleanDeliveryAllocatesNothing(t *testing.T) {
	h := newHarness(core.Options{Tracking: core.TrackOwnerSharers}, Scenario{}, nil)
	m := msg.Message{Type: msg.RdBlk, Addr: 0x10, Src: nodeL2A, Dst: nodeDir}
	if n := testing.AllocsPerRun(100, func() { h.oracle.OnDeliver(0, m) }); n != 0 {
		t.Errorf("a clean delivery allocates %v times", n)
	}
	if h.violation != nil {
		t.Fatal(h.violation)
	}
}

// TestOracleReportsSingleOwner: the oracle checks every rule of
// CheckLine on each delivery, single-owner included. Both L2s take the
// line Modified and are downgraded to Owned: a breach without an
// exclusive copy, which SWMR alone lets through.
func TestOracleReportsSingleOwner(t *testing.T) {
	const line = cachearray.LineAddr(0x10)
	h := newHarness(core.Options{}, Scenario{}, nil)
	var rules []string
	h.oracle.cfg.Report = func(v *core.ProtocolViolation) { rules = append(rules, v.Rule) }
	for _, cp := range h.cpus {
		cp.Access(0, corepair.Load, line, func() {})
		for _, typ := range []msg.Type{msg.Resp, msg.PrbDowngrade} {
			m := msg.Message{Type: typ, Addr: line, Grant: msg.GrantM, Src: nodeDir, Dst: cp.NodeID()}
			cp.Receive(m)
			h.oracle.OnDeliver(0, m)
		}
	}
	if !slices.Contains(rules, "single-owner") {
		t.Fatalf("oracle reported %q, want a single-owner breach", rules)
	}
}
