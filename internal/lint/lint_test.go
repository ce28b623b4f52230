package lint

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const badPkg = "hscsim/internal/lint/testdata/bad"

func loadBad(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load(".", badPkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for %s, want 1", len(pkgs), badPkg)
	}
	return pkgs
}

// countBy tallies diagnostics per analyzer.
func countBy(diags []Diagnostic) map[string]int {
	n := make(map[string]int)
	for _, d := range diags {
		n[d.Analyzer]++
	}
	return n
}

func TestMsgSwitchCatchesNonExhaustive(t *testing.T) {
	diags := Check(loadBad(t), []*Analyzer{MsgSwitch})
	if len(diags) != 1 {
		t.Fatalf("diags = %v, want exactly 1", diags)
	}
	m := diags[0].Message
	for _, want := range []string{"PrbAck", "Resp", "VicDirty"} {
		if !strings.Contains(m, want) {
			t.Errorf("missing-type list lacks %s: %s", want, m)
		}
	}
	for _, covered := range []string{"RdBlk,", "WT,"} {
		if strings.Contains(m, covered) {
			t.Errorf("covered type reported as missing: %s in %s", covered, m)
		}
	}
}

// mapRangeDiags runs Determinism over pkgs and keeps only its map-range
// findings.
func mapRangeDiags(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, d := range Check(pkgs, []*Analyzer{Determinism}) {
		if strings.Contains(d.Message, "map iteration") {
			out = append(out, d)
		}
	}
	return out
}

func TestMapLoopCatchesUnannotatedRange(t *testing.T) {
	pkgs := loadBad(t)
	// The testdata package is not in the real set; add it for the
	// duration of the test.
	detPackages[badPkg] = true
	defer delete(detPackages, badPkg)

	// sum has two map ranges; the one annotated //hsclint:deterministic
	// must be suppressed.
	if diags := mapRangeDiags(pkgs); len(diags) != 1 {
		t.Fatalf("map-range diags = %v, want exactly 1 (the annotated range must be suppressed)", diags)
	}
}

func TestMapLoopIgnoresColdPackages(t *testing.T) {
	if diags := mapRangeDiags(loadBad(t)); len(diags) != 0 {
		t.Fatalf("map range outside the simulation-reachable set reported: %v", diags)
	}
}

func TestDeterminismCatchesClockAndGlobalRand(t *testing.T) {
	pkgs := loadBad(t)
	detPackages[badPkg] = true
	defer delete(detPackages, badPkg)

	diags := Check(pkgs, []*Analyzer{Determinism})
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"time.Now", "time.Since", "rand.Seed", "rand.Intn", "go statement"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing a %s diagnostic in:\n%s", want, joined)
		}
	}
	// False-positive guard: exactly the two clock reads, the two global
	// draws, sum's unannotated map range and fanOut's unmarked go
	// statement — so rand.New, rand.NewSource, the *rand.Rand method
	// call, the Duration arithmetic and the marked go statement all
	// passed.
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6:\n%s", len(diags), joined)
	}
}

func TestDeterminismIgnoresUnreachablePackages(t *testing.T) {
	if diags := Check(loadBad(t), []*Analyzer{Determinism}); len(diags) != 0 {
		t.Fatalf("package outside the simulation-reachable set reported: %v", diags)
	}
}

// addController adds the testdata package to the controller set for
// the rest of the test.
func addController(t *testing.T) {
	saved := ControllerPackages
	ControllerPackages = append(slices.Clip(saved), badPkg)
	t.Cleanup(func() { ControllerPackages = saved })
}

func TestStallWakeQueueRules(t *testing.T) {
	pkgs := loadBad(t)
	if diags := Check(pkgs, []*Analyzer{StallWake}); len(diags) != 0 {
		t.Fatalf("package outside the controller set reported: %v", diags)
	}
	addController(t)
	diags := Check(pkgs, []*Analyzer{StallWake})
	if len(diags) != 5 {
		t.Fatalf("diags = %v, want exactly 5 (stalled, pushOnly, putOnly, neverFed, peekedOnly)", diags)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"stalled", "pushOnly", "putOnly", "neverFed", "peekedOnly"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing a %s diagnostic in:\n%s", want, joined)
		}
	}
	// Fields with both a park and a wake call, and the plain slice the
	// rule does not cover, must pass.
	for _, ok := range []string{"popped", "taken", "counted", "flushes"} {
		if strings.Contains(joined, ok) {
			t.Errorf("correct field %s reported:\n%s", ok, joined)
		}
	}
}

// TestDetPackagesCoverSimulator: every project package the simulator
// (internal/system) imports, directly or not, is simulation-reachable,
// so the determinism rule must cover it.
func TestDetPackagesCoverSimulator(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"-f", "{{if not .Standard}}{{.ImportPath}}{{end}}", "hscsim/internal/system").Output()
	if err != nil {
		t.Fatal(err)
	}
	deps := strings.Fields(string(out))
	if len(deps) < 10 {
		t.Fatalf("go list found only %d packages: %v", len(deps), deps)
	}
	for _, path := range deps {
		if !detPackages[path] {
			t.Errorf("internal/system imports %s, which detPackages omits", path)
		}
	}
}

// wantRE matches one golden expectation: //want <analyzer> "<substring>"
var wantRE = regexp.MustCompile(`//want (\w+) "([^"]+)"`)

// TestGoldenExpectations runs every analyzer over the testdata package
// and matches the diagnostics, line by line, against the //want
// comments in bad.go (the analysistest idiom): every diagnostic needs a
// matching expectation and every expectation a diagnostic, so the test
// fails on both missed bugs and false positives.
func TestGoldenExpectations(t *testing.T) {
	pkgs := loadBad(t)
	detPackages[badPkg] = true
	defer delete(detPackages, badPkg)
	addController(t)

	type want struct {
		analyzer, substr string
		matched          bool
	}
	src, err := os.ReadFile("testdata/bad/bad.go")
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]*want)
	total := 0
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
			wants[i+1] = append(wants[i+1], &want{analyzer: m[1], substr: m[2]})
			total++
		}
	}
	// Guards against the testdata silently losing expectations.
	if total < 11 {
		t.Fatalf("only %d //want expectations parsed from bad.go — the testdata lost some", total)
	}

	for _, d := range Check(pkgs, All()) {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if !w.matched && w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("line %d: no %s diagnostic matching %q", line, w.analyzer, w.substr)
			}
		}
	}
}

// TestRepoIsClean is the enforcement test: the whole module must pass
// every analyzer. It doubles as an integration test of the go-list
// loader (export data, cross-package types).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(".", "hscsim/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("only %d packages loaded — loader lost some", len(pkgs))
	}
	diags := Check(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if n := countBy(diags); len(n) > 0 {
		t.Fatalf("per-analyzer counts: %v", n)
	}
}
