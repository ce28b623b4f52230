// Package proto statically reconstructs each controller's
// (state, event) → {next state, actions} protocol transition table from
// the simulator's source and checks it against the handwritten spec of
// each machine's alphabets and impossible cells (spec.go). The dynamic side of the same table is the
// fsm.Recorder populated at run time; coverage.go cross-checks the two:
// a transition statically declared but never fired, or fired but never
// declared, is a finding.
//
// Extraction works on the fsm.Recorder.Record call sites the
// controllers carry. Each argument is resolved to a typed string
// constant when possible; dynamic arguments (state strings computed at
// run time) must carry a trailing //proto: annotation on the call line
// enumerating the possible values:
//
//	rec.Record(machine, st.String(), "Load", st.String()) //proto:states S,E,O,M //proto:next S,E,O,M
//
// Annotation keys:
//
//	//proto:states A,B   possible values of the state argument
//	//proto:events E,F   possible values of the event argument
//	//proto:next N,M     possible values of the next-state argument
//	//proto:actions ...  free-text description of the datapath actions
//	//proto:when O1,O2   core.Options fields that must all be set for
//	                     the site to fire
//	//proto:unless O1,O2 core.Options fields any of which suppresses
//	                     the site (earlier arms of the same policy
//	                     switch)
//	//proto:emits T1,T2  msg.Type names the arm's actions may send
//	//proto:consumes T1  msg.Type names the arm retires beyond its own
//	                     event message (e.g. replayed queued requests)
//
// When states and next have the same length they are zipped pairwise;
// a singleton on either side fans out against the other. Anything else
// is an extraction error: the annotation is ambiguous.
package proto

import (
	"fmt"
	"sort"
	"strings"

	"hscsim/internal/fsm"
)

// Site is one fsm.Recorder.Record call site with every argument
// resolved to its domain of possible string values.
type Site struct {
	Machine  string
	States   []string
	Events   []string
	Nexts    []string
	Actions  string
	When     []string // options that must all be set for the site to fire
	Unless   []string // options any of which suppresses the site
	Emits    []string // msg.Type names the arm's actions may send
	Consumes []string // msg.Type names the arm retires beyond its event
	Pos      string   // file:line
}

// TKey identifies one transition within a machine.
type TKey struct {
	State string
	Event string
	Next  string
}

func (k TKey) String() string {
	return fmt.Sprintf("(%s, %s) -> %s", k.State, k.Event, k.Next)
}

// Pair is a (state, event) cell of a machine's table.
type Pair struct {
	State string
	Event string
}

func (p Pair) String() string { return fmt.Sprintf("(%s, %s)", p.State, p.Event) }

// Guard is one site's option gate: the site can fire only when every
// option in Require is set and no option in Forbid is set. The zero
// Guard is unconditional.
type Guard struct {
	Require []string
	Forbid  []string
}

// Active reports whether the guard admits the option set.
func (g Guard) Active(enabled map[string]bool) bool {
	for _, o := range g.Require {
		if !enabled[o] {
			return false
		}
	}
	for _, o := range g.Forbid {
		if enabled[o] {
			return false
		}
	}
	return true
}

func (g Guard) String() string {
	var parts []string
	if len(g.Require) > 0 {
		parts = append(parts, strings.Join(g.Require, "+"))
	}
	for _, o := range g.Forbid {
		parts = append(parts, "!"+o)
	}
	if len(parts) == 0 {
		return "always"
	}
	return strings.Join(parts, " ")
}

// Entry is one transition of a machine's extracted table, merged over
// every site that can fire it.
type Entry struct {
	TKey
	Actions []string
	Guards  []Guard // site guards (disjunction)
	Sites   []string
	// Emits lists the msg.Type names the arm's actions may put on the
	// wire; Consumes lists the types the arm retires beyond the message
	// that is its own event (e.g. a queued victim replayed by a fill).
	// Both come from //proto:emits / //proto:consumes annotations and
	// feed the static safety analyses (internal/protocheck).
	Emits    []string
	Consumes []string
}

// ActiveUnder reports whether the transition can fire under the given
// option set (some contributing site's guard admits it).
func (e *Entry) ActiveUnder(enabled map[string]bool) bool {
	for _, g := range e.Guards {
		if g.Active(enabled) {
			return true
		}
	}
	return false
}

// EnabledBy reports whether some site requires the option, i.e. the
// transition is part of the option's table delta.
func (e *Entry) EnabledBy(option string) bool {
	for _, g := range e.Guards {
		for _, o := range g.Require {
			if o == option {
				return true
			}
		}
	}
	return false
}

// Machine is one controller's extracted transition table.
type Machine struct {
	Name    string
	Entries []*Entry
}

// Entry returns the entry for the transition, or nil.
func (m *Machine) Entry(k TKey) *Entry {
	for _, e := range m.Entries {
		if e.TKey == k {
			return e
		}
	}
	return nil
}

// Table is the full extracted transition table, one machine per
// instrumented controller state machine.
type Table struct {
	Machines []*Machine
}

// Machine returns the named machine's table, or nil.
func (t *Table) Machine(name string) *Machine {
	for _, m := range t.Machines {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Transitions returns every (machine, transition) of the table in
// sorted order, as fsm.Transitions for the dynamic cross-check.
func (t *Table) Transitions() []fsm.Transition {
	var out []fsm.Transition
	for _, m := range t.Machines {
		for _, e := range m.Entries {
			out = append(out, fsm.Transition{
				Machine: m.Name, State: e.State, Event: e.Event, Next: e.Next,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// expand enumerates the site's transitions. States and nexts of equal
// length are zipped; a singleton fans out; anything else is ambiguous.
func expand(s Site) ([]TKey, error) {
	if len(s.States) == 0 || len(s.Events) == 0 || len(s.Nexts) == 0 {
		return nil, fmt.Errorf("%s: empty state/event/next domain", s.Pos)
	}
	var pairs [][2]string
	switch {
	case len(s.States) == len(s.Nexts):
		for i := range s.States {
			pairs = append(pairs, [2]string{s.States[i], s.Nexts[i]})
		}
	case len(s.Nexts) == 1:
		for _, st := range s.States {
			pairs = append(pairs, [2]string{st, s.Nexts[0]})
		}
	case len(s.States) == 1:
		for _, nx := range s.Nexts {
			pairs = append(pairs, [2]string{s.States[0], nx})
		}
	default:
		return nil, fmt.Errorf("%s: ambiguous annotation: %d states vs %d next states (need equal, or a singleton side)",
			s.Pos, len(s.States), len(s.Nexts))
	}
	var out []TKey
	for _, ev := range s.Events {
		for _, p := range pairs {
			out = append(out, TKey{State: p[0], Event: ev, Next: p[1]})
		}
	}
	return out, nil
}

// Build merges extracted sites into per-machine tables.
func Build(sites []Site) (*Table, error) {
	machines := make(map[string]map[TKey]*Entry)
	for _, s := range sites {
		keys, err := expand(s)
		if err != nil {
			return nil, err
		}
		byKey := machines[s.Machine]
		if byKey == nil {
			byKey = make(map[TKey]*Entry)
			machines[s.Machine] = byKey
		}
		g := Guard{Require: s.When, Forbid: s.Unless}
		for _, k := range keys {
			e := byKey[k]
			if e == nil {
				e = &Entry{TKey: k}
				byKey[k] = e
			}
			if s.Actions != "" && !contains(e.Actions, s.Actions) {
				e.Actions = append(e.Actions, s.Actions)
			}
			for _, em := range s.Emits {
				if !contains(e.Emits, em) {
					e.Emits = append(e.Emits, em)
				}
			}
			for _, cn := range s.Consumes {
				if !contains(e.Consumes, cn) {
					e.Consumes = append(e.Consumes, cn)
				}
			}
			e.Guards = append(e.Guards, g)
			if !contains(e.Sites, s.Pos) {
				e.Sites = append(e.Sites, s.Pos)
			}
		}
	}

	t := &Table{}
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := &Machine{Name: name}
		for _, e := range machines[name] {
			sort.Strings(e.Actions)
			sort.Strings(e.Sites)
			sort.Strings(e.Emits)
			sort.Strings(e.Consumes)
			m.Entries = append(m.Entries, e)
		}
		sort.Slice(m.Entries, func(i, j int) bool {
			a, b := m.Entries[i], m.Entries[j]
			if a.State != b.State {
				return a.State < b.State
			}
			if a.Event != b.Event {
				return a.Event < b.Event
			}
			return a.Next < b.Next
		})
		t.Machines = append(t.Machines, m)
	}
	return t, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
