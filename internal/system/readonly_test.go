package system_test

import (
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/system"
)

// TestReadOnlyElisionEndToEnd: hsto's read-shared input under §IX
// read-only elision must verify, hold invariants, and slash baseline
// probes (the stateless directory otherwise broadcasts on every miss).
func TestReadOnlyElisionEndToEnd(t *testing.T) {
	run := func(opts core.Options) system.Results {
		cfg := smallConfig(opts)
		s := system.New(cfg)
		w, err := chai.ByName("hsto", chai.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(core.Options{})
	ro := run(core.Options{ReadOnlyElision: true})
	if ro.ProbesSent >= base.ProbesSent {
		t.Fatalf("read-only elision did not reduce probes: %d → %d", base.ProbesSent, ro.ProbesSent)
	}
	if ro.Stats["dir.readonly_elided"] == 0 {
		t.Fatal("no elided transactions counted")
	}

	// And on the tracked directory it must still verify with the
	// read-only lines intentionally untracked.
	tro := run(core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, ReadOnlyElision: true})
	if tro.Stats["dir.readonly_elided"] == 0 {
		t.Fatal("tracked mode elided nothing")
	}
}

// TestReadOnlyBenchmarksAllVerify: every benchmark that declares
// read-only ranges still verifies with the elision on.
func TestReadOnlyBenchmarksAllVerify(t *testing.T) {
	for _, name := range []string{"bs", "sc", "hsti", "hsto", "rscd", "rsct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(core.Options{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true, ReadOnlyElision: true})
			s := system.New(cfg)
			w, err := chai.ByName(name, chai.Params{Scale: 1, CPUThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(w.ReadOnly) == 0 {
				t.Fatalf("%s declares no read-only ranges", name)
			}
			if _, err := s.Run(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}
