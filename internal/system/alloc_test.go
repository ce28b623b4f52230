package system_test

import (
	"testing"

	"hscsim/internal/corepair"
	"hscsim/internal/system"
)

// TestStoreProbeRoundTripAllocs gates the full coherence fast path: a
// store that misses because the other CorePair owns the line Modified
// (RdBlkM → PrbInv → PrbAck → Resp → Unblock) allocates nothing once
// the engine, the interconnect and the controllers' free lists are
// warm. The six messages travel by value through the interconnect's
// slot table, every scheduled event comes from the engine's free list
// (see noc.TestDeliverSteadyStateAllocs and
// sim.TestScheduleSteadyStateAllocs), and the directory's txn and the
// CorePair's mshrEntry come from their controllers' free lists.
func TestStoreProbeRoundTripAllocs(t *testing.T) {
	s := system.New(system.Default())
	const line = 0x40
	turn := 0
	done := false
	complete := func() { done = true }
	store := func() {
		cp := s.CorePairs[turn%2]
		turn++
		done = false
		cp.Access(0, corepair.Store, line, complete)
		if err := s.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("store never completed")
		}
	}
	// Warm every table and map on the path: the first few trips
	// allocate message slots, events, free-list records, LLC/directory
	// entries and map buckets.
	for i := 0; i < 32; i++ {
		store()
	}
	const budget = 0
	got := testing.AllocsPerRun(200, store)
	t.Logf("store+probe round trip: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("store+probe round trip allocates %.1f/op, budget %d", got, budget)
	}
}
