package system_test

import (
	"testing"

	"hscsim/internal/corepair"
	"hscsim/internal/system"
)

// TestStoreProbeRoundTripAllocs gates the full coherence fast path: a
// store that misses because the other CorePair owns the line Modified
// (RdBlkM → PrbInv → PrbAck → Resp → Unblock) must stay within a small
// allocation budget once the engine and interconnect are warm.
//
// The budget is not zero: each round trip inherently allocates the
// CorePair's mshrEntry, its waiter slice, the directory's txn record and
// its sharer bookkeeping — small structs whose lifetime spans the
// transaction. What the budget proves is that nothing per-hop leaks in:
// the six messages travel by value through the interconnect's slot
// table and every scheduled event comes from the engine's free list
// (0 allocs each — see noc.TestDeliverSteadyStateAllocs and
// sim.TestScheduleSteadyStateAllocs).
func TestStoreProbeRoundTripAllocs(t *testing.T) {
	s := system.New(system.Default())
	const line = 0x40
	turn := 0
	store := func() {
		cp := s.CorePairs[turn%2]
		turn++
		done := false
		cp.Access(0, corepair.Store, line, func() { done = true })
		if err := s.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("store never completed")
		}
	}
	// Warm every table and map on the path: the first few trips
	// allocate message slots, events, LLC/directory entries and map
	// buckets.
	for i := 0; i < 32; i++ {
		store()
	}
	// Measured 7.0 allocs/op; the budget sits exactly on the
	// measurement so any new allocation on the store+probe path fails
	// loudly.
	const budget = 7
	got := testing.AllocsPerRun(200, store)
	t.Logf("store+probe round trip: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("store+probe round trip allocates %.1f/op, budget %d", got, budget)
	}
}
