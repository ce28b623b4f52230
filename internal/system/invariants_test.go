package system_test

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/msg"
	"hscsim/internal/system"
)

// grant makes pair p's L2 hold line in the state g grants, without the
// directory: a load misses (its request stays queued in the engine,
// which the test never runs), and a forged response fills the line.
func grant(s *system.System, p int, line cachearray.LineAddr, g msg.Grant) {
	cp := s.CorePairs[p]
	cp.Access(0, corepair.Load, line, func() {})
	dir := msg.NodeID(len(s.CorePairs) + len(s.GPUCaches.NodeIDs()) + 1)
	cp.Receive(msg.Message{Type: msg.Resp, Addr: line, Grant: g, Src: dir, Dst: cp.NodeID()})
}

// probe delivers a forged directory probe straight to pair p.
func probe(s *system.System, p int, typ msg.Type, line cachearray.LineAddr) {
	cp := s.CorePairs[p]
	dir := msg.NodeID(len(s.CorePairs) + len(s.GPUCaches.NodeIDs()) + 1)
	cp.Receive(msg.Message{Type: typ, Addr: line, Src: dir, Dst: cp.NodeID()})
}

// TestCheckCoherenceMessages pins CheckCoherence's report for each
// invariant it checks, on L2 states forged past the protocol.
func TestCheckCoherenceMessages(t *testing.T) {
	const line = cachearray.LineAddr(0x40)
	tracked := core.Options{Tracking: core.TrackOwnerSharers}
	for _, tc := range []struct {
		name  string
		opts  core.Options
		setup func(*system.System)
		want  string
	}{
		{"two M/E holders", core.Options{}, func(s *system.System) {
			grant(s, 0, line, msg.GrantM)
			grant(s, 1, line, msg.GrantE)
		}, "line 0x40: 2 M/E holders"},
		{"M/E with sharers", core.Options{}, func(s *system.System) {
			grant(s, 1, line, msg.GrantS)
			grant(s, 2, line, msg.GrantE)
			grant(s, 3, line, msg.GrantS)
		}, "line 0x40: M/E in pair 2 with 3 total holders"},
		{"multiple owners", core.Options{}, func(s *system.System) {
			for _, p := range []int{0, 2} {
				grant(s, p, line, msg.GrantM)
				probe(s, p, msg.PrbDowngrade, line) // M → O
			}
		}, "line 0x40: 2 Owned holders"},
		{"lost inclusion", tracked, func(s *system.System) {
			grant(s, 0, line, msg.GrantS)
			grant(s, 3, line, msg.GrantS)
		}, "line 0x40: cached in L2s [0 3] but untracked (inclusion violated)"},
		{"wrong owner", tracked, func(s *system.System) {
			// A real store makes pair 1 the tracked owner; then pair 1
			// silently loses the line and pair 0 gains it Modified.
			s.CorePairs[1].Access(0, corepair.Store, line, func() {})
			if err := s.Engine.Run(); err != nil {
				t.Fatal(err)
			}
			probe(s, 1, msg.PrbInv, line)
			grant(s, 0, line, msg.GrantM)
		}, "line 0x40: owner tracked as 1, actual 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := system.New(smallConfig(tc.opts))
			if err := s.CheckCoherence(); err != nil {
				t.Fatalf("fresh system: %v", err)
			}
			tc.setup(s)
			err := s.CheckCoherence()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("CheckCoherence = %v, want %q", err, tc.want)
			}
		})
	}
}
