package system_test

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/conform"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/prog"
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

// access runs a real access by pair p's first core to completion.
func access(t *testing.T, s *system.System, p int, kind corepair.AccessKind, line cachearray.LineAddr) {
	t.Helper()
	s.CorePairs[p].Access(0, kind, line, func() {})
	if err := s.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCoherenceMessages pins CheckCoherence's report for each
// invariant it checks, on L2 states forged past the protocol.
func TestCheckCoherenceMessages(t *testing.T) {
	const line = cachearray.LineAddr(0x40)
	tracked := core.Options{Tracking: core.TrackOwnerSharers}
	// ownedAndShared leaves pair 1 the tracked owner, holding the line
	// Owned, and pair 2 a tracked sharer.
	ownedAndShared := func(t *testing.T, s *system.System) {
		access(t, s, 1, corepair.Store, line)
		access(t, s, 2, corepair.Load, line)
	}
	for _, tc := range []struct {
		name  string
		opts  core.Options
		setup func(*testing.T, *system.System)
		want  string
	}{
		{"two M/E holders", core.Options{}, func(_ *testing.T, s *system.System) {
			grant(s, 0, line, msg.GrantM)
			grant(s, 1, line, msg.GrantE)
		}, "line 0x40: swmr: 2 exclusive holder(s) among 2 valid CPU copies"},
		{"M/E with sharers", core.Options{}, func(_ *testing.T, s *system.System) {
			grant(s, 1, line, msg.GrantS)
			grant(s, 2, line, msg.GrantE)
			grant(s, 3, line, msg.GrantS)
		}, "line 0x40: swmr: 1 exclusive holder(s) among 3 valid CPU copies"},
		{"multiple owners", core.Options{}, func(_ *testing.T, s *system.System) {
			for _, p := range []int{0, 2} {
				grant(s, p, line, msg.GrantM)
				probe(s, p, msg.PrbDowngrade, line) // M → O
			}
		}, "line 0x40: single-owner: 2 Owned copies"},
		{"lost inclusion", tracked, func(_ *testing.T, s *system.System) {
			grant(s, 0, line, msg.GrantS)
			grant(s, 3, line, msg.GrantS)
		}, "line 0x40: inclusivity: L2 0 holds the line S but the directory tracks nothing"},
		{"wrong owner", tracked, func(t *testing.T, s *system.System) {
			// A real store makes pair 1 the tracked owner; then pair 1
			// silently loses the line and pair 0 gains it Modified.
			access(t, s, 1, corepair.Store, line)
			probe(s, 1, msg.PrbInv, line)
			grant(s, 0, line, msg.GrantM)
		}, "line 0x40: inclusivity: L2 0 holds the line M but the entry is O with owner 1"},
		{"missing sharer", tracked, func(t *testing.T, s *system.System) {
			ownedAndShared(t, s)
			grant(s, 0, line, msg.GrantS)
		}, "line 0x40: inclusivity: L2 0 holds the line S but is neither owner nor sharer (entry O owner=1 sharers=0x4)"},
		{"owner holds nothing", tracked, func(t *testing.T, s *system.System) {
			ownedAndShared(t, s)
			probe(s, 1, msg.PrbInv, line)
		}, "line 0x40: inclusivity: entry is O with owner 1 but the owner holds nothing (not cached, not in the victim buffer)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := system.New(smallConfig(tc.opts))
			if err := s.CheckCoherence(); err != nil {
				t.Fatalf("fresh system: %v", err)
			}
			tc.setup(t, s)
			err := s.CheckCoherence()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("CheckCoherence = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRunEndsWithCoherenceSweep: a run whose final state breaks an
// invariant fails with the sweep's report, through System.Run and
// Runner.Run alike. Pair 0's L2 never loses its copy of x: every
// invalidating probe bound for it arrives as a downgrade, so the store
// on pair 1 leaves an S copy beside the M one.
func TestRunEndsWithCoherenceSweep(t *testing.T) {
	const x, flag = memdata.Addr(0x10000), memdata.Addr(0x20000)
	cfg := system.Default()
	cfg.Mutate = conform.StaleSharerMask(0)
	w := system.Workload{Name: "stale-sharer", Threads: []func(*prog.CPUThread){
		func(c *prog.CPUThread) {
			c.Load(x)
			c.Store(flag, 1)
		},
		func(*prog.CPUThread) {},
		func(c *prog.CPUThread) { // the second CorePair's first core
			c.SpinUntil(flag, func(v uint64) bool { return v == 1 })
			c.Store(x, 1)
		},
	}}
	const want = `system: workload "stale-sharer": line 0x400: swmr: 1 exclusive holder(s) among 2 valid CPU copies`
	if _, err := system.New(cfg).Run(w); err == nil || err.Error() != want {
		t.Fatalf("System.Run = %v, want %q", err, want)
	}
	var r system.Runner
	defer r.Close()
	if _, err := r.Run(cfg, w); err == nil || err.Error() != want {
		t.Fatalf("Runner.Run = %v, want %q", err, want)
	}
}
