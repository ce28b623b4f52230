package proto

import (
	"fmt"
	"sort"
	"strings"
)

// Markdown renders the table as one GitHub-flavored Markdown section
// per machine, deterministic and diff-friendly. TABLES.md is generated
// from this and checked in; it is the only rendering, so every entry
// attribute an analysis reads is a column and each arm is one row.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("# Protocol transition tables\n\n")
	b.WriteString("Extracted from the controller sources by `go run ./cmd/hscproto -write`;\n")
	b.WriteString("rerun it after changing any `fsm.Recorder.Record` site. `hscproto -check`\n")
	b.WriteString("fails CI when this file is stale, so a protocol change reviews as\n")
	b.WriteString("`git diff TABLES.md`, one row per arm. The Guard column lists the\n")
	b.WriteString("`core.Options` gates under which a transition can fire (`always` =\n")
	b.WriteString("unconditional, `!X` = X unset). Emits lists the message types the arm\n")
	b.WriteString("may send (`//proto:emits`); Consumes lists the message types it retires\n")
	b.WriteString("beyond its own event message (`//proto:consumes`). The deadlock graph\n")
	b.WriteString("(`hscproto -deadlock`) reads both, and the wake rule of `-check` reads Emits.\n")
	for _, m := range t.Machines {
		fmt.Fprintf(&b, "\n## %s\n\n", m.Name)
		if s := SpecFor(m.Name); s != nil {
			fmt.Fprintf(&b, "%d transitions over %d (state, event) cells; %d cells impossible by construction.\n\n",
				len(m.Entries), len(s.Reachable()), len(s.Impossible))
		}
		b.WriteString("| State | Event | Next | Guard | Actions | Emits | Consumes |\n")
		b.WriteString("|---|---|---|---|---|---|---|\n")
		for _, e := range m.Entries {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n",
				e.State, e.Event, e.Next, guardColumn(e), strings.Join(e.Actions, "; "),
				strings.Join(e.Emits, ", "), strings.Join(e.Consumes, ", "))
		}
		if s := SpecFor(m.Name); s != nil && len(s.Impossible) > 0 {
			b.WriteString("\nImpossible cells:\n\n")
			for _, line := range impossibleLines(s) {
				fmt.Fprintf(&b, "- %s\n", line)
			}
		}
	}
	return b.String()
}

// guardColumn summarizes an entry's guards: "always" as soon as any
// contributing site is unconditional, the distinct guard strings
// otherwise.
func guardColumn(e *Entry) string {
	var parts []string
	for _, g := range e.Guards {
		if len(g.Require) == 0 && len(g.Forbid) == 0 {
			return "always"
		}
		if s := g.String(); !contains(parts, s) {
			parts = append(parts, s)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " / ")
}

// impossibleLines groups a spec's impossible cells by justification.
func impossibleLines(s *MachineSpec) []string {
	byReason := make(map[string][]Pair)
	for p, reason := range s.Impossible {
		byReason[reason] = append(byReason[reason], p)
	}
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	var out []string
	for _, r := range reasons {
		ps := byReason[r]
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].State != ps[j].State {
				return ps[i].State < ps[j].State
			}
			return ps[i].Event < ps[j].Event
		})
		strs := make([]string, len(ps))
		for i, p := range ps {
			strs[i] = p.String()
		}
		out = append(out, fmt.Sprintf("%s — %s", strings.Join(strs, ", "), r))
	}
	return out
}
