package conform

import (
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/system"
)

// TestStoreCommitWindowRegression pins the fix for a probe/store race
// the conformance campaign originally surfaced on sssp under
// earlyResp: a store that hit in M/E committed its data after the L1
// pipeline latency, and a probe arriving inside that window snapshotted
// the pre-store line — the downgraded requester then read stale data
// (an oracle [data-value] violation). The core pair now serializes
// probes behind in-flight store commits (corepair.storeCommit /
// probeWait), and the oracle folds probe effects at PrbAck delivery
// rather than probe delivery. This run reproduced the race reliably
// before the fix.
func TestStoreCommitWindowRegression(t *testing.T) {
	t.Parallel()
	w, err := chai.ByName("sssp", chai.Params{Scale: 1, CPUThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EvalConfig(core.Options{EarlyDirtyResponse: true})
	cfg.Oracle = true
	s := system.New(cfg)
	if _, err := s.Run(w); err != nil {
		t.Fatalf("store-commit-window race regressed: %v", err)
	}
	if s.OracleChecks() == 0 {
		t.Fatal("oracle performed no checks")
	}
}
