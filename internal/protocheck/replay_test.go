package protocheck

import (
	"strings"
	"testing"
)

// Counterexample replay: a trace is only trustworthy if each of its
// steps names exactly one move of the model and the replayed run
// re-triggers the reported violation. This guards the trace
// reconstruction (parent links + successor ordinals, reach.go) and the
// lasso builder (live.go) against drift in the successor enumeration.

// replayStep applies one recorded step to s: among successors(s), the
// (desc, arm, rendered canonical state) triple must select exactly one
// distinct next state, which is returned.
func replayStep(t *testing.T, cfg ModelConfig, s state, step TraceStep) state {
	t.Helper()
	var match state
	distinct := map[skey]bool{}
	for _, nx := range successors(s, cfg) {
		ns := nx.s.canon()
		arm := ""
		if nx.arm.Machine != "" {
			arm = nx.arm.String()
		}
		if nx.desc == step.Desc && arm == step.Arm && ns.String() == step.State {
			match = ns
			distinct[pack(ns)] = true
		}
	}
	if len(distinct) != 1 {
		t.Fatalf("trace step %q [%s] → %s selects %d successors of %s",
			step.Desc, step.Arm, step.State, len(distinct), s)
	}
	return match
}

func TestCounterexampleReplay(t *testing.T) {
	// Safety counterexamples: replay the shortest trace from quiescence
	// and re-check the reported invariant on the final state.
	safety := []struct {
		cfg     ModelConfig
		problem string
	}{
		{ModelConfig{Mode: ModeStateless, EDR: true, Bug: BugVictimRefetch}, "stale-victim"},
		{ModelConfig{Mode: ModeStateless, Bug: BugEvictDuringUpgrade}, "stale-victim"},
		{ModelConfig{Mode: ModeTrackOwnerSharers, EDR: true, Bug: BugSkipAck}, "swmr"},
	}
	for _, c := range safety {
		r := exploreCached(t, c.cfg)
		v := r.Violation
		if v == nil {
			t.Errorf("%v: bug not caught in %d states", c.cfg, r.States)
			continue
		}
		s := initial()
		for _, step := range v.Trace {
			s = replayStep(t, c.cfg, s, step)
		}
		if s.String() != v.State {
			t.Errorf("%v: replay ends in %s, violation reports %s", c.cfg, s, v.State)
		}
		probs := s.violations(c.cfg)
		found := false
		for _, p := range probs {
			if strings.Contains(p, c.problem) {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: replayed final state does not violate %q: %v", c.cfg, c.problem, probs)
		}
		t.Logf("%v: replayed %d-step safety trace, re-triggered %q", c.cfg, len(v.Trace), c.problem)
	}

	// Liveness counterexample: the stem must reach the starved state,
	// the cycle must return to it, and every state on the cycle must be
	// transient (a stable state on the cycle would mean it drains).
	cfg := ModelConfig{Mode: ModeStateless, EDR: true, Bug: BugDropWake}
	l, err := exploreCached(t, cfg).Liveness()
	if err != nil {
		t.Fatal(err)
	}
	if l.Lasso == nil {
		t.Fatal("BugDropWake produced no lasso")
	}
	s := initial()
	for _, step := range l.Lasso.Stem {
		s = replayStep(t, cfg, s, step)
	}
	if s.String() != l.Lasso.State {
		t.Fatalf("stem replay ends in %s, lasso reports %s", s, l.Lasso.State)
	}
	start := s
	for _, step := range l.Lasso.Cycle {
		s = replayStep(t, cfg, s, step)
		if s.stable() {
			t.Errorf("lasso cycle passes through a stable state: %s", s)
		}
	}
	if s != start {
		t.Errorf("lasso cycle does not close: started at %s, ended at %s", start, s)
	}
	t.Logf("replayed %d-step stem and %d-step cycle of the BugDropWake lasso",
		len(l.Lasso.Stem), len(l.Lasso.Cycle))
}
