package conform

import (
	"strings"
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/sim"
	"hscsim/internal/system"
	"hscsim/internal/verify"
)

// caseMaxTicks bounds one case run: a legitimate case completes in
// thousands of ticks, and a candidate that deadlocks under fault
// injection must still terminate quickly for the minimizer.
const caseMaxTicks = sim.Tick(2_000_000)

func testVariants() []core.Options {
	variants := verify.Variants()
	if testing.Short() {
		variants = []core.Options{variants[0], variants[len(variants)-1]}
	}
	return variants
}

func testCells() []Cell { return Cells(testVariants(), []int{1, 4}) }

// TestQuickCampaign is the in-tree slice of the conformance matrix:
// three CHAI benchmarks spanning the sharing patterns (dynamic tiling,
// task queue, input-partitioned histogram), every variant, monolithic
// and banked directories, oracle on. cmd/hscconform runs the full
// 14-benchmark matrix.
func TestQuickCampaign(t *testing.T) {
	for _, bench := range []string{"bs", "tq", "hsti"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			results, failures := Campaign(CampaignConfig{
				Benchmarks: []string{bench},
				Params:     chai.Params{Scale: 1, CPUThreads: 4, Seed: 1},
				Variants:   testVariants(),
				Banks:      []int{1, 4},
				Log:        t.Logf,
			})
			for _, f := range failures {
				t.Error(f.Error())
			}
			for _, r := range results {
				if r.OracleChecks == 0 {
					t.Errorf("%s: oracle performed no checks", r.Bench)
				}
			}
		})
	}
}

// TestRandomCaseDifferential cross-checks random race-free cases across
// the full cell matrix: every variant and directory organization must
// converge to the same final memory image.
func TestRandomCaseDifferential(t *testing.T) {
	cells := testCells()
	for _, seed := range []int64{1, 2, 3} {
		c := RandomCase(seed, 3, 24, 8)
		if fail := DiffCase(c, cells, caseMaxTicks); fail != nil {
			t.Fatalf("%s\n%s", fail.Error(), c)
		}
	}
}

// TestControllerPanicFailsCell: a mutator that rewrites an
// invalidation bound for the TCC (node 4) into a downgrade makes the
// GPU cache complex panic on a message it never expects. The panic must
// fail that cell with an error naming the cell and the panic value, not
// kill the test binary from a diffWorkload worker.
func TestControllerPanicFailsCell(t *testing.T) {
	build := func() (system.Workload, error) {
		return chai.ByName("tq", chai.Params{Scale: 1, CPUThreads: 4, Seed: 1})
	}
	cell := Cell{Opts: verify.Variants()[0], Mutate: StaleSharerMask(4)}
	fail, _ := DiffWorkload("tq", build, []Cell{cell}, 0)
	if fail == nil || fail.Err == nil {
		t.Fatalf("failure = %v, want the cell's run error", fail)
	}
	msg := fail.Err.Error()
	for _, want := range []string{"cell " + cell.String() + " panicked", "unexpected PrbDowngrade"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}
}

// TestMinimizeMechanics checks the shrinker against a synthetic
// predicate (no simulator): the failure needs exactly a CPU0 store and
// a CPU1 load on line 0x20, so the minimizer must strip everything
// else.
func TestMinimizeMechanics(t *testing.T) {
	const hot = 0x20
	fails := func(c Case) bool {
		st, ld := false, false
		for t, p := range c.CPU {
			for _, op := range p {
				if t == 0 && op.Kind == verify.Store && op.Line == hot {
					st = true
				}
				if t == 1 && op.Kind == verify.Load && op.Line == hot {
					ld = true
				}
			}
		}
		return st && ld
	}
	c := RandomCase(5, 3, 40, 17)
	// Plant the failure pattern inside the noise.
	c.CPU[0] = append(c.CPU[0], verify.AgentOp{Kind: verify.Store, Line: hot})
	c.CPU[1] = append(c.CPU[1], verify.AgentOp{Kind: verify.Load, Line: hot})
	min := Minimize(c, fails)
	if !fails(min) {
		t.Fatal("minimized case no longer fails")
	}
	if got := min.Ops(); got != 2 {
		t.Fatalf("minimized to %d ops, want 2:\n%s", got, min)
	}
	if got := len(min.Lines()); got != 1 {
		t.Fatalf("minimized case touches %d lines, want 1:\n%s", got, min)
	}
}

// TestSeededBugCaughtAndMinimized is the end-to-end negative test the
// issue demands: weaken invalidating probes into downgrades on one
// cell, confirm the differential check catches it, minimize, and replay
// the minimized counterexample exhaustively in internal/verify with the
// same mutator.
func TestSeededBugCaughtAndMinimized(t *testing.T) {
	baseline := core.Options{}
	cells := []Cell{
		{Opts: baseline},
		{Opts: baseline, Mutate: WeakenProbes},
	}
	fails := func(c Case) bool { return DiffCase(c, cells, caseMaxTicks) != nil }

	c := RandomCase(7, 3, 30, 6)
	fail := DiffCase(c, cells, caseMaxTicks)
	if fail == nil {
		t.Fatal("weakened-probe cell passed the differential check; the harness cannot catch seeded bugs")
	}
	t.Logf("seeded bug caught: %v", fail)

	min := Minimize(c, fails)
	t.Logf("minimized reproducer:\n%s", min)
	if got := len(min.CPU); got > 2 {
		t.Fatalf("minimized case still has %d CPU threads, want <= 2", got)
	}
	if got := min.Ops(); got > 20 {
		t.Fatalf("minimized case still has %d ops, want <= 20", got)
	}

	sc, err := min.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res := verify.Run(verify.Config{Opts: baseline, Scenario: sc, Mutate: WeakenProbes})
	if res.Violation == nil {
		t.Fatalf("minimized scenario replays clean in the model checker (states=%d paths=%d truncated=%v)",
			res.States, res.Paths, res.Truncated)
	}
	t.Logf("model checker reproduces the violation: %v", res.Violation.Err)
}

// TestMinimizeJointCrossAgent pins the cross-agent ddmin pass: the
// synthetic failure fires only while CPU0 and CPU1 have the same
// length (≥ 2), so every single-agent deletion makes the candidate
// pass and the per-agent passes are stuck at 8+8. Only correlated
// deletions — chunks of the round-robin interleaved (agent, op) list —
// can shrink it, down to the 2+2 minimum.
func TestMinimizeJointCrossAgent(t *testing.T) {
	fails := func(c Case) bool {
		return len(c.CPU) == 2 && len(c.CPU[0]) == len(c.CPU[1]) && len(c.CPU[0]) >= 2
	}
	c := Case{Name: "lockstep"}
	for tid := 0; tid < 2; tid++ {
		var ops []verify.AgentOp
		for i := 0; i < 8; i++ {
			ops = append(ops, verify.AgentOp{Kind: verify.Load, Line: 0x10 + cachearray.LineAddr(i)})
		}
		c.CPU = append(c.CPU, ops)
	}

	min := Minimize(c, fails)
	if !fails(min) {
		t.Fatal("minimized case no longer fails")
	}
	if got := min.Ops(); got != 4 {
		t.Fatalf("minimized to %d ops, want 4 (2+2):\n%s", got, min)
	}
	if len(min.CPU[0]) != 2 || len(min.CPU[1]) != 2 {
		t.Fatalf("minimized shape %d+%d, want 2+2:\n%s", len(min.CPU[0]), len(min.CPU[1]), min)
	}
}
