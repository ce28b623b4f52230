package system_test

import (
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/system"
)

// TestSmokeAllBenchmarksBaseline runs every CHAI workload to completion
// on the baseline protocol, verifying results and coherence invariants.
func TestSmokeAllBenchmarksBaseline(t *testing.T) {
	for _, name := range chai.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := chai.ByName(name, chai.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			s := system.New(system.Default())
			res, err := s.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}
			t.Logf("%s: %d cycles, %d mem accesses, %d probes",
				name, res.Cycles, res.MemAccesses(), res.ProbesSent)
		})
	}
}

// TestSmokeTrackingModes runs one collaborative benchmark under every
// protocol variant.
func TestSmokeTrackingModes(t *testing.T) {
	variants := []core.Options{
		{},
		{EarlyDirtyResponse: true},
		{NoWBCleanVicToMem: true},
		{NoWBCleanVicToLLC: true, NoWBCleanVicToMem: true},
		{LLCWriteBack: true},
		{LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	for _, opt := range variants {
		opt := opt
		t.Run(opt.Named(), func(t *testing.T) {
			w, err := chai.ByName("tq", chai.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			cfg := system.Default()
			cfg.Protocol = opt
			s := system.New(cfg)
			res, err := s.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d cycles, %d mem, %d probes",
				opt.Named(), res.Cycles, res.MemAccesses(), res.ProbesSent)
		})
	}
}
