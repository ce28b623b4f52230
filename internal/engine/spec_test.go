package engine

import (
	"fmt"
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/system"
)

// TestValidateMatchesBuildableTCCCounts: every TCC count Validate
// accepts builds a system, and the counts that cannot split the TCC
// into power-of-two banks are rejected up front instead of panicking
// the job later.
func TestValidateMatchesBuildableTCCCounts(t *testing.T) {
	for _, base := range []string{ConfigEval, ConfigFull} {
		for n := 1; n <= 16; n++ {
			sp := Spec{Bench: "bs", Config: base, Topology: TopologySpec{NumTCCs: n}}
			if base == ConfigEval && n == 3 {
				if err := sp.Validate(); err == nil {
					t.Fatal("numTCCs=3 on eval: Validate accepted a TCC that splits into 3 banks")
				}
			}
			if sp.Validate() != nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", base, n), func(t *testing.T) {
				cfg, err := buildConfig(sp.Normalized())
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Validate accepted numTCCs=%d, but system.New panicked: %v", n, r)
					}
				}()
				system.New(cfg)
			})
		}
	}
}

// TestValidateMatchesBuildableDirGeometry: every directory geometry
// Validate accepts builds a system. Under tracking, entry counts whose
// per-bank directory cache has no power-of-two set count are rejected
// up front instead of panicking the job later, and so are bank counts
// that leave an LLC bank without sets.
func TestValidateMatchesBuildableDirGeometry(t *testing.T) {
	for _, base := range []string{ConfigEval, ConfigFull} {
		for _, tracking := range []string{"", "owner"} {
			for _, banks := range []int{1, 2, 4, 1024} {
				for entries := 1; entries <= 16; entries++ {
					sp := Spec{Bench: "bs", Config: base, Protocol: ProtocolSpec{Tracking: tracking},
						Topology: TopologySpec{DirBanks: banks, DirEntries: entries}}
					if sp.Validate() != nil {
						continue
					}
					cfg, err := buildConfig(sp.Normalized())
					if err != nil {
						t.Fatal(err)
					}
					if r := newSystemPanic(cfg); r != nil {
						t.Errorf("Validate accepted %s/tracking=%q/dirBanks=%d/dirEntries=%d, but system.New panicked: %v",
							base, tracking, banks, entries, r)
					}
				}
			}
		}
	}
	for _, sp := range []Spec{
		{Bench: "bs", Config: ConfigEval, Protocol: ProtocolSpec{Tracking: "owner"}, Topology: TopologySpec{DirEntries: 3}},
		{Bench: "bs", Config: ConfigEval, Topology: TopologySpec{DirBanks: 1024}},
	} {
		if sp.Validate() == nil {
			t.Errorf("%s/tracking=%q with %+v: Validate accepted a directory geometry system.New cannot build",
				sp.Config, sp.Protocol.Tracking, sp.Topology)
		}
	}
}

// TestValidateMatchesBuildableProbeTargets: every CorePair and TCC
// count Validate accepts builds a system. Under tracking, more probe
// targets than a directory entry's sharer bitmap holds are rejected up
// front; without tracking the count is not limited.
func TestValidateMatchesBuildableProbeTargets(t *testing.T) {
	for _, tracking := range []string{"", "owner", "owner+sharers"} {
		for _, topo := range []TopologySpec{
			{NumCorePairs: 63},
			{NumCorePairs: 64},
			{NumCorePairs: 62, NumTCCs: 2},
			{NumCorePairs: 63, NumTCCs: 2},
			{NumCorePairs: 200},
		} {
			sp := Spec{Bench: "bs", Protocol: ProtocolSpec{Tracking: tracking}, Topology: topo}
			targets := topo.NumCorePairs + max(topo.NumTCCs, 1)
			err := sp.Validate()
			if tracking != "" && targets > core.MaxTrackedTargets {
				if err == nil {
					t.Errorf("tracking=%q with %+v: Validate accepted %d probe targets", tracking, topo, targets)
				}
				continue
			}
			if err != nil {
				t.Errorf("tracking=%q with %+v: %v", tracking, topo, err)
				continue
			}
			cfg, err := buildConfig(sp.Normalized())
			if err != nil {
				t.Fatal(err)
			}
			if r := newSystemPanic(cfg); r != nil {
				t.Errorf("Validate accepted tracking=%q with %+v, but system.New panicked: %v", tracking, topo, r)
			}
		}
	}
	cfg := EvalConfig(core.Options{Tracking: core.TrackOwnerSharers})
	cfg.NumCorePairs = core.MaxTrackedTargets
	if newSystemPanic(cfg) == nil {
		t.Errorf("system.New built a tracking directory over %d probe targets", core.MaxTrackedTargets+1)
	}
}

// newSystemPanic builds a system from cfg and returns what the build
// panicked with, or nil.
func newSystemPanic(cfg system.Config) (r any) {
	defer func() { r = recover() }()
	system.New(cfg)
	return nil
}
