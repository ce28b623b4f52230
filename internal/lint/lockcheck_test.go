package lint

import "testing"

const (
	lockcheckPkg      = "hscsim/internal/lint/testdata/lockcheck"
	lockcheckCleanPkg = "hscsim/internal/lint/testdata/lockcheckclean"
)

// TestLockCheckGoldens runs the lock-discipline analyzer over a
// package seeding one instance of every rule class — blocking under a
// fast lock (intrinsic, annotated interface method, raw channel op,
// and inferred same-package helper), missing-unlock on an early
// return, double-lock, unlock-of-unheld, RWMutex mode mismatch, lock
// order inversion, a broken handoff contract, a broken locks contract,
// a bare exported method, a false neutral claim, and an untracked
// goroutine — and matches the diagnostics against the //want comments.
func TestLockCheckGoldens(t *testing.T) {
	pkgs := loadPkg(t, lockcheckPkg)
	// The testdata package is not on the real lock list; pin it for the
	// duration of the test.
	lockPackages[lockcheckPkg] = true
	defer delete(lockPackages, lockcheckPkg)
	checkGoldens(t, pkgs, []*Analyzer{LockCheck}, "testdata/lockcheck/lockcheck.go", 14)
}

// TestLockCheckCleanGuards runs the analyzer over the false-positive
// guard package: defer-unlock, per-path conditional unlock, nested
// locks in the declared order, select-with-default under a fast lock,
// a lock handoff via locks/unlocks contracts, the caller-held unlock
// idiom, WaitGroup-tied and spawn-annotated goroutines, and matched
// RLock/RUnlock pairs. Any diagnostic here is a false positive by
// construction.
func TestLockCheckCleanGuards(t *testing.T) {
	lockPackages[lockcheckCleanPkg] = true
	defer delete(lockPackages, lockcheckCleanPkg)
	diags := Check(loadPkg(t, lockcheckCleanPkg), []*Analyzer{LockCheck})
	for _, d := range diags {
		t.Errorf("false positive: %s", d)
	}
}

// TestLockCheckIgnoresUnlistedPackages: a package outside both the
// lock list and the sim-reachable set gets no lockcheck attention at
// all — not even the goroutine rule.
func TestLockCheckIgnoresUnlistedPackages(t *testing.T) {
	if diags := Check(loadPkg(t, lockcheckPkg), []*Analyzer{LockCheck}); len(diags) != 0 {
		t.Fatalf("unlisted package reported: %v", diags)
	}
}

// TestLockCheckEnginePinned pins the fix for the engine's lock
// incident: the engine holds its fast mutex (engine.Engine.mu) strictly
// around index mutation and releases it before the result-cache probe,
// whose Cache.Get carries //lockcheck:blocks because it may read disk.
// Moving the probe back under the lock — the original incident shape —
// makes this test fail with a blocking-under-lock diagnostic, so the
// bug class is pinned statically rather than by a timing-sensitive
// regression run.
func TestLockCheckEnginePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a live package; skipped in -short")
	}
	pkgs, err := Load(".", "hscsim/internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Check(pkgs, []*Analyzer{LockCheck}) {
		t.Errorf("engine package regressed: %s", d)
	}
}
