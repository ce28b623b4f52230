package protocheck

import (
	"strings"
	"testing"
)

// TestLiveHealthyNoLasso: under the real protocol tables, every
// transient state of every abstract configuration drains to quiescence
// — the liveness prover finds no starved state.
func TestLiveHealthyNoLasso(t *testing.T) {
	for _, cfg := range Configs() {
		r := exploreCached(t, cfg)
		l, err := r.Liveness()
		if err != nil {
			t.Fatal(err)
		}
		if l.Lasso != nil {
			t.Errorf("%s: unexpected liveness lasso (%d trapped states):\n%s", cfg, l.Trapped, l.Lasso)
		}
		if l.Stable == 0 || l.Transient == 0 {
			t.Errorf("%s: degenerate partition: %d stable, %d transient", cfg, l.Stable, l.Transient)
		}
		if l.Stable+l.Transient != l.States {
			t.Errorf("%s: partition does not cover the state space", cfg)
		}
		t.Logf("%s: %d states (%d stable), drained in %v", cfg, l.States, l.Stable, l.Elapsed)
	}
}

// TestLiveCatchesDropWake: dropping the WBAck wake arm starves the
// victim buffer — a pure liveness bug: no safety invariant breaks, but
// the prover must produce a lasso whose pending-work list names the
// starved victim and whose cycle the system can repeat forever.
func TestLiveCatchesDropWake(t *testing.T) {
	cfg := ModelConfig{Mode: ModeStateless, EDR: true, Bug: BugDropWake}
	r := exploreCached(t, cfg)
	if r.Violation != nil {
		t.Fatalf("BugDropWake must stay safety-clean (it only loses a wake), got:\n%s", r.Violation)
	}
	l, err := r.Liveness()
	if err != nil {
		t.Fatal(err)
	}
	if l.Lasso == nil {
		t.Fatalf("wake-dropping bug produced no lasso (%d states, %d trapped)", l.States, l.Trapped)
	}
	if l.Trapped == 0 {
		t.Error("lasso without trapped states")
	}
	ls := l.Lasso
	if len(ls.Stem) == 0 {
		t.Error("lasso has no stem from the quiescent state")
	}
	if len(ls.Cycle) == 0 {
		t.Error("lasso has no cycle (the trapped region cannot be a dead end: stalls self-loop)")
	}
	if len(ls.Starved) == 0 {
		t.Error("lasso does not name the starved pending work")
	}
	rendered := ls.String()
	if !strings.Contains(rendered, "victim buffer") {
		t.Errorf("lasso does not mention the starved victim buffer:\n%s", rendered)
	}
	t.Logf("lasso (%d-step stem, %d-step cycle):\n%s", len(ls.Stem), len(ls.Cycle), rendered)
}

// TestLivenessRefusesIncompleteGraph: a safety violation stops the BFS
// early, so the liveness pass must refuse the truncated graph instead
// of proving garbage.
func TestLivenessRefusesIncompleteGraph(t *testing.T) {
	r := exploreCached(t, ModelConfig{Mode: ModeStateless, EDR: true, Bug: BugVictimRefetch})
	if r.Violation == nil {
		t.Fatal("expected a safety violation")
	}
	if _, err := r.Liveness(); err == nil {
		t.Error("Liveness() accepted a graph truncated by a safety violation")
	}
}
