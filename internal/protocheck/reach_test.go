package protocheck

import (
	"strings"
	"sync"
	"testing"

	"hscsim/internal/core"
)

// exploreCached shares full explorations across the package's tests,
// so each configuration, seeded bugs included, is explored once per
// test binary: the big tracked configurations take minutes, and the
// containment, liveness and replay tests need the same reachable sets
// the safety tests check. A result is read-only after Explore, so
// Liveness may run on it more than once.
var (
	exploreMu    sync.Mutex
	exploreCache = map[ModelConfig]*ReachResult{}
)

func exploreCached(t *testing.T, cfg ModelConfig) *ReachResult {
	t.Helper()
	exploreMu.Lock()
	defer exploreMu.Unlock()
	if r, ok := exploreCache[cfg]; ok {
		return r
	}
	r, err := Explore(cfg, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	exploreCache[cfg] = r
	return r
}

// TestReachSafeAndCrossChecked: every abstract configuration is
// explored exhaustively to its known state count; every reachable
// composite state satisfies the coherence invariants (verify.CheckLine);
// and the arms the model animates agree with the extracted tables both
// ways.
func TestReachSafeAndCrossChecked(t *testing.T) {
	wantStates := []int{730280, 775912, 2911352, 825688} // in Configs() order
	var results []*ReachResult
	for i, cfg := range Configs() {
		r := exploreCached(t, cfg)
		results = append(results, r)
		if r.Violation != nil {
			t.Errorf("%s", r.Violation)
		}
		if r.States != wantStates[i] {
			t.Errorf("%s explored %d states, want %d", r.Config, r.States, wantStates[i])
		}
		t.Logf("%s: %d states (%d stable), %d arms", r.Config, r.States, len(r.Stable), len(r.ArmsUsed))
	}
	for _, f := range CrossCheckArms(repoTable(t), results) {
		t.Errorf("%s", f)
	}
}

// TestCleanStateAllocatesNothing: the prover checks the invariants on
// every reachable state, so a clean one must not allocate.
func TestCleanStateAllocatesNothing(t *testing.T) {
	s := initial()
	s.Dir.Entry = 'O'
	s.Ag[0].Cache, s.Ag[0].Own = 'O', true
	s.Ag[1].Cache, s.Ag[1].Shr = 'S', true
	cfg := ModelConfig{Mode: ModeTrackOwnerSharers, EDR: true}
	if probs := s.violations(cfg); probs != nil {
		t.Fatalf("legal state reported %q", probs)
	}
	if n := testing.AllocsPerRun(100, func() { s.violations(cfg) }); n != 0 {
		t.Errorf("a clean state allocates %v times", n)
	}
}

// TestConfigFor: the paper's six variants collapse onto the four
// abstract configurations (LLC placement options are invisible to the
// protocol abstraction).
func TestConfigFor(t *testing.T) {
	cases := []struct {
		opts core.Options
		want ModelConfig
	}{
		{core.Options{}, ModelConfig{Mode: ModeStateless}},
		{core.Options{EarlyDirtyResponse: true}, ModelConfig{Mode: ModeStateless, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
			ModelConfig{Mode: ModeStateless, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, UseL3OnWT: true},
			ModelConfig{Mode: ModeStateless, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner},
			ModelConfig{Mode: ModeTrackOwner, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
			ModelConfig{Mode: ModeTrackOwnerSharers, EDR: true}},
	}
	for _, c := range cases {
		if got := ConfigFor(c.opts); got != c.want {
			t.Errorf("ConfigFor(%+v) = %v, want %v", c.opts, got, c.want)
		}
	}
}

// TestReachCatchesVictimRefetch: re-fetching a line that still sits in
// the victim buffer (instead of stalling until WBAck) must reach a
// state with a live cache copy alongside a live victim — the exact
// hazard the cpu.l2 WB stall arm prevents.
func TestReachCatchesVictimRefetch(t *testing.T) {
	for _, mode := range []Mode{ModeStateless, ModeTrackOwnerSharers} {
		r := exploreCached(t, ModelConfig{Mode: mode, EDR: true, Bug: BugVictimRefetch})
		if r.Violation == nil {
			t.Fatalf("%s: victim-refetch bug not caught in %d states", mode, r.States)
		}
		assertViolation(t, r.Violation, "stale-victim")
	}
}

// TestReachCatchesEvictDuringUpgrade: without the MSHR pin in
// corepair's fill path, a conflicting fill can victimize a line whose
// upgrade RdBlkM is still in flight; the late fill then installs
// Modified next to the line's own live victim-buffer entry.
func TestReachCatchesEvictDuringUpgrade(t *testing.T) {
	r := exploreCached(t, ModelConfig{Mode: ModeStateless, Bug: BugEvictDuringUpgrade})
	if r.Violation == nil {
		t.Fatalf("evict-during-upgrade bug not caught in %d states", r.States)
	}
	assertViolation(t, r.Violation, "stale-victim")
}

// TestReachCatchesSkipAck: a directory that responds before the probe
// acks drain lets the grant race the in-flight invalidations — the new
// owner installs Modified while the old copy is still live, breaking
// SWMR.
func TestReachCatchesSkipAck(t *testing.T) {
	for _, mode := range []Mode{ModeStateless, ModeTrackOwnerSharers} {
		r := exploreCached(t, ModelConfig{Mode: mode, EDR: true, Bug: BugSkipAck})
		if r.Violation == nil {
			t.Fatalf("%s: skipped-ack bug not caught in %d states", mode, r.States)
		}
		assertViolation(t, r.Violation, "swmr")
	}
}

func assertViolation(t *testing.T, v *Violation, problem string) {
	t.Helper()
	found := false
	for _, p := range v.Problems {
		if strings.Contains(p, problem) {
			found = true
		}
	}
	if !found {
		t.Errorf("violation does not mention %q: %v", problem, v.Problems)
	}
	if len(v.Trace) == 0 {
		t.Error("violation has no abstract trace")
	}
	for _, step := range v.Trace {
		if step.Desc == "" || step.State == "" {
			t.Errorf("trace step missing desc/state: %+v", step)
		}
	}
	t.Logf("counterexample:\n%s", v)
}
