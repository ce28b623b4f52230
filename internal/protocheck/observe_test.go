package protocheck

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/msg"
	"hscsim/internal/system"
)

// TestDynamicContainment: every composite state the concrete simulator
// is observed in (at line quiescence) must be reachable in the verified
// abstract model — the soundness link between the static proof and the
// real controllers.
func TestDynamicContainment(t *testing.T) {
	variants := []core.Options{
		{EarlyDirtyResponse: true},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
	}
	for _, opts := range variants {
		opts := opts
		t.Run(opts.Named(), func(t *testing.T) {
			mcfg := ConfigFor(opts)
			r := exploreCached(t, mcfg)
			if r.Violation != nil {
				t.Fatal(r.Violation)
			}
			sys := system.New(ObserverConfig(opts))
			obs, err := NewObserver(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(ContendedWorkload(7)); err != nil {
				t.Fatal(err)
			}
			for _, f := range obs.Contained(r) {
				t.Errorf("%s", f)
			}
			states, samples, skipped := obs.Stats()
			t.Logf("%s: %d distinct observed states (%d samples, %d busy-line skips), %d stable reachable",
				mcfg, states, samples, skipped, len(r.Stable))
			if states < 4 {
				t.Errorf("only %d distinct states observed — workload not exercising the protocol?", states)
			}
		})
	}
}

// TestContainmentCatchesGrantMutation: upgrading a Shared grant to
// Modified in flight puts the concrete system into composite states
// (two exclusive CPU copies) outside the verified reachable set — the
// containment check must flag them.
func TestContainmentCatchesGrantMutation(t *testing.T) {
	opts := core.Options{EarlyDirtyResponse: true}
	r := exploreCached(t, ConfigFor(opts))
	cfg := ObserverConfig(opts)
	cfg.Mutate = func(m msg.Message) (msg.Message, bool) {
		if m.Type == msg.Resp && m.Grant == msg.GrantS && int(m.Dst) < 2 {
			m.Grant = msg.GrantM
		}
		return m, true
	}
	sys := system.New(cfg)
	obs, err := NewObserver(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(ContendedWorkload(11)); err != nil {
		t.Fatal(err)
	}
	findings := obs.Contained(r)
	if len(findings) == 0 {
		states, samples, _ := obs.Stats()
		t.Fatalf("grant mutation escaped containment (%d states from %d samples)", states, samples)
	}
	t.Logf("caught: %s", findings[0].Detail)
}
