package verify

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/msg"
)

// TestExhaustiveSweep runs every paper variant against every standard
// scenario and requires a clean, non-truncated exhaustive exploration.
func TestExhaustiveSweep(t *testing.T) {
	for _, opts := range Variants() {
		for _, sc := range Scenarios() {
			opts, sc := opts, sc
			t.Run(opts.Named()+"/"+sc.Name, func(t *testing.T) {
				t.Parallel()
				res := Run(Config{Opts: opts, Scenario: sc})
				if res.Violation != nil {
					t.Fatalf("violation:\n%s", res.Violation)
				}
				if res.Truncated {
					t.Fatalf("exploration truncated at %d states — scenario too large for exhaustive checking", res.States)
				}
				if res.Paths == 0 {
					t.Fatalf("no complete path explored (states=%d)", res.States)
				}
				t.Logf("states=%d paths=%d", res.States, res.Paths)
			})
		}
	}
}

// TestDMAScenariosSweep model-checks DMARd/DMAWr interleaved with CPU
// stores under every variant: the uncached DMA stream must never expose
// stale data or strand a directory transaction.
func TestDMAScenariosSweep(t *testing.T) {
	for _, opts := range Variants() {
		for _, sc := range DMAScenarios() {
			opts, sc := opts, sc
			t.Run(opts.Named()+"/"+sc.Name, func(t *testing.T) {
				t.Parallel()
				res := Run(Config{Opts: opts, Scenario: sc})
				if res.Violation != nil {
					t.Fatalf("violation:\n%s", res.Violation)
				}
				if res.Truncated {
					t.Fatalf("exploration truncated at %d states", res.States)
				}
				if res.Paths == 0 {
					t.Fatalf("no complete path explored (states=%d)", res.States)
				}
				t.Logf("states=%d paths=%d", res.States, res.Paths)
			})
		}
	}
}

// TestSeededDroppedAck drops every probe acknowledgment sent by CPU
// L2 node 1. The directory then waits forever for its probe count; the
// checker must report the resulting deadlock, not hang or pass.
func TestSeededDroppedAck(t *testing.T) {
	res := Run(Config{
		Opts:     core.Options{},
		Scenario: Scenarios()[0], // single-line contention forces probes
		Mutate: func(m msg.Message) (msg.Message, bool) {
			return m, m.Type != msg.PrbAck || m.Src != 1
		},
	})
	if res.Violation == nil {
		t.Fatalf("checker missed the seeded dropped-ack bug (states=%d paths=%d)", res.States, res.Paths)
	}
	if r := res.Violation.Err.Rule; r != "deadlock" && r != "leak" {
		t.Fatalf("expected a deadlock/leak from the dropped ack, got rule %q:\n%s", r, res.Violation)
	}
	t.Logf("caught: %v", res.Violation.Err)
}

// TestSeededWeakProbe downgrades every invalidating probe to an L2 to a
// non-invalidating one, so stale copies survive writes — the checker
// must flag an SWMR or data-value violation. (The TCC's probes stay
// invalidations: it is never downgrade-probed and panics on one.)
func TestSeededWeakProbe(t *testing.T) {
	res := Run(Config{
		Opts:     core.Options{},
		Scenario: Scenarios()[0],
		Mutate: func(m msg.Message) (msg.Message, bool) {
			if m.Type == msg.PrbInv && m.Dst != nodeTCC {
				m.Type = msg.PrbDowngrade
			}
			return m, true
		},
	})
	if res.Violation == nil {
		t.Fatalf("checker missed the seeded weak-probe bug (states=%d paths=%d)", res.States, res.Paths)
	}
	switch res.Violation.Err.Rule {
	case "swmr", "data-value", "mirror", "final-stale-copy", "final-lost-write":
	default:
		t.Fatalf("expected a coherence violation from the weakened probes, got rule %q:\n%s",
			res.Violation.Err.Rule, res.Violation)
	}
	t.Logf("caught: %v", res.Violation.Err)
}
