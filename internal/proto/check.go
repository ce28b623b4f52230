package proto

import (
	"fmt"
	"slices"
	"sort"

	"hscsim/internal/core"
	"hscsim/internal/msg"
)

// CheckStatic verifies the extracted table against the handwritten
// spec and returns every problem found (empty means the table passes):
//
//   - the extracted machine set matches the spec machine set;
//   - every state/event/next value lies in the spec domains, and so
//     does every impossible cell;
//   - every reachable (state, event) cell is handled;
//   - no extracted transition handles an impossible cell;
//   - no coverage exemption is stale;
//   - every arm triggered by a delivered message has that message
//     emitted by another machine (checkWakes);
//   - option guards reference real core.Options fields, and only the
//     LLC write-policy machine carries guards at all;
//   - the per-option table deltas and the per-variant active tables
//     match the paper's (LLCOptionDeltas, LLCVariantTables).
func CheckStatic(t *Table) []string {
	var problems []string
	bad := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	specs := Specs()
	specNames := make(map[string]bool, len(specs))
	for _, s := range specs {
		specNames[s.Name] = true
		if t.Machine(s.Name) == nil {
			bad("%s: machine in spec but not extracted from source", s.Name)
		}
	}
	for _, m := range t.Machines {
		if !specNames[m.Name] {
			bad("%s: machine extracted from source but has no spec", m.Name)
		}
	}

	for _, s := range specs {
		m := t.Machine(s.Name)
		if m == nil {
			continue
		}
		checkMachine(s, m, bad)
	}

	checkGuards(t, bad)
	checkEmits(t, bad)
	checkWakes(t, bad)
	checkDeltas(t, bad)
	checkVariants(t, bad)
	return problems
}

// checkEmits validates that every //proto:emits and //proto:consumes
// value names a real message type — a typo here would silently punch a
// hole in the static safety analyses that consume the metadata.
func checkEmits(t *Table, bad func(string, ...interface{})) {
	for _, m := range t.Machines {
		for _, e := range m.Entries {
			for _, name := range e.Emits {
				if _, ok := msg.TypeByName(name); !ok {
					bad("%s: %s: emits unknown message type %q", m.Name, siteList(e), name)
				}
			}
			for _, name := range e.Consumes {
				if _, ok := msg.TypeByName(name); !ok {
					bad("%s: %s: consumes unknown message type %q", m.Name, siteList(e), name)
				}
			}
		}
	}
}

// checkWakes requires a sender for every arm whose event is a
// delivered message: some other machine must emit that message. A
// controller cannot send itself the message that moves it on, so an
// exit nobody else sends strands the line in its state — the cpu.l2
// victim buffer WB, for one, drains only on the directory's WBAck —
// and any other arm nobody triggers is dead or unrecorded.
func checkWakes(t *Table, bad func(string, ...interface{})) {
	emitters := make(map[string][]string) // message type → machines emitting it
	for _, m := range t.Machines {
		for _, e := range m.Entries {
			for _, name := range e.Emits {
				if !contains(emitters[name], m.Name) {
					emitters[name] = append(emitters[name], m.Name)
				}
			}
		}
	}
	for _, m := range t.Machines {
		other := func(name string) bool { return name != m.Name }
		for _, e := range m.Entries {
			if _, ok := msg.TypeByName(e.Event); !ok {
				continue
			}
			if !slices.ContainsFunc(emitters[e.Event], other) {
				bad("%s: %s: leaves %s on %s, which no other machine emits", m.Name, siteList(e), e.State, e.Event)
			}
		}
	}
}

func checkMachine(s *MachineSpec, m *Machine, bad func(string, ...interface{})) {
	states := stringSet(s.States)
	events := stringSet(s.Events)
	nexts := stringSet(s.Nexts)

	for p := range s.Impossible {
		if !states[p.State] || !events[p.Event] {
			bad("%s: impossible cell %s is outside the spec domains", s.Name, p)
		}
	}

	// Extracted table vs spec.
	handled := make(map[Pair]bool)
	for _, e := range m.Entries {
		if !states[e.State] {
			bad("%s: %s: state %q outside spec domain (%s)", s.Name, siteList(e), e.State, e.TKey)
		}
		if !events[e.Event] {
			bad("%s: %s: event %q outside spec domain (%s)", s.Name, siteList(e), e.Event, e.TKey)
		}
		if !nexts[e.Next] {
			bad("%s: %s: next state %q outside spec domain (%s)", s.Name, siteList(e), e.Next, e.TKey)
		}
		p := Pair{State: e.State, Event: e.Event}
		handled[p] = true
		if reason, ok := s.Impossible[p]; ok {
			bad("%s: %s: handles %s, which the spec marks impossible (%s)", s.Name, siteList(e), p, reason)
		}
	}
	for _, p := range s.Reachable() {
		if !handled[p] {
			bad("%s: reachable cell %s has no handler in the source", s.Name, p)
		}
	}
	for k := range s.CoverageExempt {
		if m.Entry(k) == nil {
			bad("%s: stale coverage exemption: %s is not in the extracted table", s.Name, k)
		}
	}
}

// checkGuards validates option names and confines guards to dir.llc.
func checkGuards(t *Table, bad func(string, ...interface{})) {
	known := OptionSet(core.Options{})
	for _, m := range t.Machines {
		for _, e := range m.Entries {
			for _, g := range e.Guards {
				for _, o := range append(append([]string{}, g.Require...), g.Forbid...) {
					if _, ok := known[o]; !ok {
						bad("%s: %s: guard references unknown option %q", m.Name, siteList(e), o)
					}
				}
				for _, o := range g.Require {
					if contains(g.Forbid, o) {
						bad("%s: %s: guard both requires and forbids %q", m.Name, siteList(e), o)
					}
				}
				if m.Name != "dir.llc" && (len(g.Require) > 0 || len(g.Forbid) > 0) {
					bad("%s: %s: option guard outside dir.llc — only the LLC write policy is variant-gated", m.Name, siteList(e))
				}
			}
		}
	}
}

// checkDeltas verifies each option's table delta: the transitions that
// require the option are exactly the paper's.
func checkDeltas(t *Table, bad func(string, ...interface{})) {
	m := t.Machine("dir.llc")
	if m == nil {
		return
	}
	options := make([]string, 0, len(LLCOptionDeltas))
	for o := range LLCOptionDeltas {
		options = append(options, o)
	}
	sort.Strings(options)
	for _, option := range options {
		want := make(map[TKey]bool)
		for _, k := range LLCOptionDeltas[option] {
			want[k] = true
		}
		for _, e := range m.Entries {
			if e.EnabledBy(option) && !want[e.TKey] {
				bad("dir.llc: %s requires %s but is not in the paper's %s delta", e.TKey, option, option)
			}
		}
		for k := range want {
			e := m.Entry(k)
			if e == nil {
				bad("dir.llc: %s delta transition %s is not in the extracted table", option, k)
			} else if !e.EnabledBy(option) {
				bad("dir.llc: %s is in the paper's %s delta but no site requires %s", k, option, option)
			}
		}
	}
}

// checkVariants verifies that guard evaluation reproduces the expected
// active dir.llc table for every paper variant.
func checkVariants(t *Table, bad func(string, ...interface{})) {
	m := t.Machine("dir.llc")
	if m == nil {
		return
	}
	for _, v := range LLCVariantTables() {
		enabled := OptionSet(v.Opts)
		want := make(map[TKey]bool)
		for _, k := range v.Active {
			want[k] = true
		}
		for _, e := range m.Entries {
			if e.ActiveUnder(enabled) != want[e.TKey] {
				state := "inactive"
				if want[e.TKey] {
					state = "active"
				}
				bad("dir.llc: variant %q: %s should be %s per the paper's table diff",
					v.Opts.Named(), e.TKey, state)
			}
		}
		for k := range want {
			if m.Entry(k) == nil {
				bad("dir.llc: variant %q: expected transition %s is not in the extracted table", v.Opts.Named(), k)
			}
		}
	}
}

func siteList(e *Entry) string {
	if len(e.Sites) == 0 {
		return "?"
	}
	if len(e.Sites) == 1 {
		return e.Sites[0]
	}
	return fmt.Sprintf("%s (+%d more)", e.Sites[0], len(e.Sites)-1)
}

func stringSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
