package proto

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hscsim/internal/fsm"
	"hscsim/internal/verify"
)

// extractRepo loads and extracts the real controller sources once per
// test binary.
var repoTable *Table

func repoExtract(t *testing.T) *Table {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the controller packages")
	}
	if repoTable == nil {
		tbl, err := Extract(".")
		if err != nil {
			t.Fatal(err)
		}
		repoTable = tbl
	}
	return repoTable
}

// TestRepoTablePassesStaticCheck is the enforcement test: the
// transition table extracted from the real controllers must satisfy
// the spec — every reachable (state, event) cell handled, no
// unreachable arms, paper-exact variant deltas.
func TestRepoTablePassesStaticCheck(t *testing.T) {
	tbl := repoExtract(t)
	for _, p := range CheckStatic(tbl) {
		t.Errorf("%s", p)
	}
}

// TestRepoTableShape pins the headline numbers: all eight machines
// extracted, with the expected transition counts per machine.
func TestRepoTableShape(t *testing.T) {
	tbl := repoExtract(t)
	want := map[string]int{
		"cpu.l2":        34,
		"dir.llc":       11,
		"dir.ro":        4,
		"dir.stateless": 10,
		"dir.tracked":   39,
		"dma.engine":    4,
		"gpu.tcc":       29,
		"gpu.wave":      6,
	}
	if len(tbl.Machines) != len(want) {
		t.Errorf("extracted %d machines, want %d", len(tbl.Machines), len(want))
	}
	for name, n := range want {
		m := tbl.Machine(name)
		if m == nil {
			t.Errorf("machine %s not extracted", name)
			continue
		}
		if len(m.Entries) != n {
			t.Errorf("%s: %d transitions extracted, want %d", name, len(m.Entries), n)
			for _, e := range m.Entries {
				t.Logf("  %s (%s)", e.TKey, siteList(e))
			}
		}
	}
}

// TestRepoTablesFresh: the module root's TABLES.md is exactly what
// Markdown renders from the sources, so a stale file fails go test as
// well as CI's hscproto -check.
func TestRepoTablesFresh(t *testing.T) {
	tbl := repoExtract(t)
	got, err := os.ReadFile(filepath.Join("..", "..", "TABLES.md"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != tbl.Markdown() {
		t.Fatal("TABLES.md is stale; regenerate with go run ./cmd/hscproto -write")
	}
}

// TestMarkdownRendersEveryAttribute: TABLES.md is the only rendering
// of the tables, so an edit to any attribute an analysis reads must
// change it — including the emits and consumes lists the deadlock
// graph and the stall lint read.
func TestMarkdownRendersEveryAttribute(t *testing.T) {
	fixture := func() *Table {
		return &Table{Machines: []*Machine{{Name: "dir.x", Entries: []*Entry{{
			TKey:     TKey{State: "I", Event: "VicDirty", Next: "I"},
			Actions:  []string{"commit victim"},
			Guards:   []Guard{{Require: []string{"LLCWriteBack"}}},
			Emits:    []string{"WBAck"},
			Consumes: []string{"VicDirty"},
		}}}}}
	}
	base := fixture().Markdown()
	for _, tc := range []struct {
		attr   string
		mutate func(e *Entry)
	}{
		{"state", func(e *Entry) { e.State = "V" }},
		{"event", func(e *Entry) { e.Event = "VicClean" }},
		{"next", func(e *Entry) { e.Next = "V" }},
		{"guard", func(e *Entry) { e.Guards = []Guard{{}} }},
		{"actions", func(e *Entry) { e.Actions = []string{"commit victim, WBAck"} }},
		{"emits", func(e *Entry) { e.Emits = []string{"WBAck", "Resp"} }},
		{"consumes", func(e *Entry) { e.Consumes = nil }},
	} {
		tbl := fixture()
		tc.mutate(tbl.Machines[0].Entries[0])
		if tbl.Markdown() == base {
			t.Errorf("editing the %s of an entry leaves Markdown unchanged", tc.attr)
		}
	}
}

// TestVariantTablesMatchVerify pins the spec's variant list to
// verify.Variants so the two cannot drift.
func TestVariantTablesMatchVerify(t *testing.T) {
	vs := verify.Variants()
	tables := LLCVariantTables()
	if len(vs) != len(tables) {
		t.Fatalf("spec has %d variants, verify.Variants has %d", len(tables), len(vs))
	}
	for i, v := range vs {
		if tables[i].Opts != v {
			t.Errorf("variant %d: spec opts %+v != verify.Variants opts %+v", i, tables[i].Opts, v)
		}
	}
}

func TestExpand(t *testing.T) {
	cases := []struct {
		site Site
		want []TKey
		err  string
	}{
		{ // zip
			site: Site{States: []string{"S", "O"}, Events: []string{"Load"}, Nexts: []string{"S", "O"}},
			want: []TKey{{"S", "Load", "S"}, {"O", "Load", "O"}},
		},
		{ // singleton next fans states
			site: Site{States: []string{"S", "E"}, Events: []string{"Evict"}, Nexts: []string{"WB"}},
			want: []TKey{{"S", "Evict", "WB"}, {"E", "Evict", "WB"}},
		},
		{ // singleton state fans nexts
			site: Site{States: []string{"I"}, Events: []string{"Fill"}, Nexts: []string{"S", "E", "M"}},
			want: []TKey{{"I", "Fill", "S"}, {"I", "Fill", "E"}, {"I", "Fill", "M"}},
		},
		{ // multiple events multiply
			site: Site{States: []string{"WB"}, Events: []string{"Load", "Store"}, Nexts: []string{"WB"}},
			want: []TKey{{"WB", "Load", "WB"}, {"WB", "Store", "WB"}},
		},
		{ // ambiguous
			site: Site{States: []string{"A", "B", "C"}, Events: []string{"E"}, Nexts: []string{"X", "Y"}, Pos: "f.go:1"},
			err:  "ambiguous",
		},
	}
	for i, c := range cases {
		got, err := expand(c.site)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("case %d: err = %v, want %q", i, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d key %d: got %v, want %v", i, j, got[j], c.want[j])
			}
		}
	}
}

func TestParseAttrs(t *testing.T) {
	attrs, err := parseAttrs("// x //proto:states S,E //proto:next M //proto:actions install upgrade grant //proto:when LLCWriteBack //proto:unless UseL3OnWT")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"states":  "S,E",
		"next":    "M",
		"actions": "install upgrade grant",
		"when":    "LLCWriteBack",
		"unless":  "UseL3OnWT",
	} {
		if attrs[key] != want {
			t.Errorf("attrs[%q] = %q, want %q", key, attrs[key], want)
		}
	}
	if _, err := parseAttrs("//proto:states A //proto:states B"); err == nil {
		t.Error("duplicate key not rejected")
	}
	if _, err := parseAttrs("//proto:bogus x"); err == nil {
		t.Error("unknown key not rejected")
	}
	if _, err := parseAttrs("//proto:states"); err == nil {
		t.Error("empty value not rejected")
	}
}

func TestGuardEvaluation(t *testing.T) {
	e := &Entry{Guards: []Guard{
		{Require: []string{"LLCWriteBack"}},
		{Require: []string{"NoWBCleanVicToMem"}, Forbid: []string{"NoWBCleanVicToLLC", "LLCWriteBack"}},
	}}
	if e.ActiveUnder(map[string]bool{}) {
		t.Error("active with no options set")
	}
	if !e.ActiveUnder(map[string]bool{"LLCWriteBack": true}) {
		t.Error("inactive under LLCWriteBack")
	}
	if !e.ActiveUnder(map[string]bool{"NoWBCleanVicToMem": true}) {
		t.Error("inactive under NoWBCleanVicToMem")
	}
	if e.ActiveUnder(map[string]bool{"NoWBCleanVicToMem": true, "NoWBCleanVicToLLC": true}) {
		t.Error("active although the earlier switch arm wins")
	}
	if !e.EnabledBy("LLCWriteBack") || !e.EnabledBy("NoWBCleanVicToMem") {
		t.Error("EnabledBy misses a required option")
	}
	if e.EnabledBy("NoWBCleanVicToLLC") {
		t.Error("EnabledBy counts a forbidden option")
	}
}

// TestCrossCheck exercises the static-vs-dynamic comparison on a
// synthetic table and recorder.
func TestCrossCheck(t *testing.T) {
	tbl := &Table{Machines: []*Machine{{
		Name: "dma.engine",
		Entries: []*Entry{
			{TKey: TKey{State: "-", Event: "Rd", Next: "-"}},
			{TKey: TKey{State: "-", Event: "Wr", Next: "-"}},
		},
	}}}
	rec := fsm.NewRecorder()
	rec.Record("dma.engine", "-", "Rd", "-")
	rec.Record("dma.engine", "-", "Flush", "-") // not declared
	rec.Record("dir.bogus", "-", "X", "-")      // unknown machine

	cov := CrossCheck(tbl, rec)
	if len(cov) != 2 {
		t.Fatalf("got %d coverage entries, want 2", len(cov))
	}
	dma := cov[0]
	if dma.Machine != "dma.engine" || dma.Fired != 1 || dma.Declared != 2 {
		t.Errorf("dma coverage = %+v", dma)
	}
	if len(dma.Unfired) != 1 || dma.Unfired[0].Event != "Wr" {
		t.Errorf("unfired = %v, want the Wr transition", dma.Unfired)
	}
	if len(dma.Unknown) != 1 || dma.Unknown[0].Event != "Flush" {
		t.Errorf("unknown = %v, want the Flush transition", dma.Unknown)
	}
	if cov[1].Machine != "dir.bogus" || len(cov[1].Unknown) != 1 {
		t.Errorf("bogus machine coverage = %+v", cov[1])
	}

	percent, problems := Summarize(cov, 95)
	if percent != 50 {
		t.Errorf("percent = %v, want 50", percent)
	}
	if len(problems) != 4 {
		t.Errorf("problems = %v, want unfired + 2 unknown + below-bar", problems)
	}
	if _, problems := Summarize(cov, 40); len(problems) != 2 {
		t.Errorf("above the bar, problems = %v, want only the 2 extraction gaps", problems)
	}
}

// TestStaticCheckCatchesDefects mutates a healthy synthetic table and
// spec interaction to prove each checker direction fires.
func TestStaticCheckCatchesDefects(t *testing.T) {
	tbl := repoExtract(t)

	// Removing a handled transition must trip exhaustiveness.
	m := tbl.Machine("dma.engine")
	saved := m.Entries
	m.Entries = m.Entries[1:]
	found := false
	for _, p := range CheckStatic(tbl) {
		if strings.Contains(p, "no handler") && strings.Contains(p, "dma.engine") {
			found = true
		}
	}
	m.Entries = saved
	if !found {
		t.Error("removing a dma.engine transition not reported as a hole")
	}

	// An out-of-domain transition must be flagged as unreachable.
	m.Entries = append(m.Entries, &Entry{TKey: TKey{State: "-", Event: "Bogus", Next: "-"}, Sites: []string{"x.go:1"}})
	found = false
	for _, p := range CheckStatic(tbl) {
		if strings.Contains(p, "Bogus") {
			found = true
		}
	}
	m.Entries = m.Entries[:len(m.Entries)-1]
	if !found {
		t.Error("out-of-domain transition not reported")
	}
}

// editedRepoTable returns a copy of the repo table in which edit may
// rewrite each entry's emits; entries edit returns false for are
// dropped.
func editedRepoTable(t *testing.T, edit func(machine string, e *Entry) bool) *Table {
	t.Helper()
	out := &Table{}
	for _, m := range repoExtract(t).Machines {
		mm := &Machine{Name: m.Name}
		for _, e := range m.Entries {
			ee := *e
			ee.Emits = slices.Clone(e.Emits)
			if edit(m.Name, &ee) {
				mm.Entries = append(mm.Entries, &ee)
			}
		}
		out.Machines = append(out.Machines, mm)
	}
	return out
}

// wantProblem fails unless CheckStatic reports a problem containing
// want.
func wantProblem(t *testing.T, tbl *Table, want string) {
	t.Helper()
	problems := CheckStatic(tbl)
	for _, p := range problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Errorf("no problem contains %q; got %q", want, problems)
}

// TestStaticCheckCatchesUnwokenExit: the directory's WBAck is the only
// wake of the cpu.l2 victim buffer WB. Strip it from every directory
// arm's emits and the exit from WB has nothing to wake it.
func TestStaticCheckCatchesUnwokenExit(t *testing.T) {
	tbl := editedRepoTable(t, func(machine string, e *Entry) bool {
		if strings.HasPrefix(machine, "dir.") {
			e.Emits = slices.DeleteFunc(e.Emits, func(name string) bool { return name == "WBAck" })
		}
		return true
	})
	wantProblem(t, tbl, "leaves WB on WBAck, which no other machine emits")
}

// TestStaticCheckCatchesUnsentMessage: the wake rule covers every arm
// a message triggers, not just exits. The TCC's release arm is the only
// sender of Flush; strip it and both directories' Flush arms, which
// stay in state -, have nothing to trigger them.
func TestStaticCheckCatchesUnsentMessage(t *testing.T) {
	tbl := editedRepoTable(t, func(machine string, e *Entry) bool {
		if machine == "gpu.tcc" && e.Event == "Release" {
			e.Emits = slices.DeleteFunc(e.Emits, func(name string) bool { return name == "Flush" })
		}
		return true
	})
	problems := CheckStatic(tbl)
	for _, dir := range []string{"dir.stateless", "dir.tracked"} {
		if !slices.ContainsFunc(problems, func(p string) bool {
			return strings.HasPrefix(p, dir+": ") && strings.HasSuffix(p, "leaves - on Flush, which no other machine emits")
		}) {
			t.Errorf("no %s problem for its unsent Flush arm; got %q", dir, problems)
		}
	}
}

// TestStaticCheckCatchesMissingExit: drop the (WB, WBAck) arm and the
// victim buffer has no way out.
func TestStaticCheckCatchesMissingExit(t *testing.T) {
	tbl := editedRepoTable(t, func(machine string, e *Entry) bool {
		return machine != "cpu.l2" || e.State != "WB" || e.Event != "WBAck"
	})
	wantProblem(t, tbl, "cpu.l2: reachable cell (WB, WBAck) has no handler")
}

// TestStaticCheckCatchesUnenteredState: drop the Evict arms into WB and
// nothing enters the victim buffer.
func TestStaticCheckCatchesUnenteredState(t *testing.T) {
	tbl := editedRepoTable(t, func(machine string, e *Entry) bool {
		return machine != "cpu.l2" || e.Next != "WB" || e.State == "WB"
	})
	for _, st := range []string{"S", "E", "O", "M"} {
		wantProblem(t, tbl, "cpu.l2: reachable cell ("+st+", Evict) has no handler")
	}
}
