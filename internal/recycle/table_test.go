package recycle

import (
	"slices"
	"testing"
)

func TestTablePutFindDelete(t *testing.T) {
	var tab Table[uint64, string]
	if tab.Find(3) != nil || tab.Delete(3) || tab.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	*tab.Put(3) = "c"
	*tab.Put(0) = "zero"
	if v, ok := tab.Get(3); !ok || v != "c" {
		t.Fatalf("Get(3) = %q, %t", v, ok)
	}
	if p := tab.Put(3); *p != "c" {
		t.Fatalf("Put of a present key reset its value to %q", *p)
	}
	if v, ok := tab.Get(0); !ok || v != "zero" || tab.Len() != 2 {
		t.Fatalf("key 0: %q, %t; Len %d", v, ok, tab.Len())
	}
	if !tab.Delete(3) || tab.Delete(3) || tab.Find(3) != nil || tab.Len() != 1 {
		t.Fatal("Delete did not remove exactly one entry")
	}
	if tab.Find(^uint64(0)) != nil || tab.Delete(^uint64(0)) {
		t.Fatal("the reserved key was found")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of the reserved key did not panic")
		}
	}()
	tab.Put(^uint64(0))
}

// TestTableCollidingRuns deletes from the middle of long probe runs:
// keys k<<58 all hash to slot runs that wrap around the table, so
// every backward shift crosses the end of the slot array.
func TestTableCollidingRuns(t *testing.T) {
	var tab Table[uint64, uint64]
	ref := make(map[uint64]uint64)
	for round := uint64(0); round < 4; round++ {
		for k := uint64(0); k < 40; k++ {
			key := k<<58 | round
			*tab.Put(key) = key
			ref[key] = key
		}
		for k := uint64(0); k < 40; k += 3 {
			key := k<<58 | round
			tab.Delete(key)
			delete(ref, key)
		}
	}
	checkTable(t, &tab, ref)
}

// TestTableIterationDeterministic builds the same table twice and
// requires the same ForEach order.
func TestTableIterationDeterministic(t *testing.T) {
	build := func() []uint64 {
		var tab Table[uint64, bool]
		for k := uint64(0); k < 100; k++ {
			tab.Put(k * 7919)
			if k%3 == 0 {
				tab.Delete(k * 7919 / 2)
			}
		}
		var keys []uint64
		tab.ForEach(func(k uint64, _ *bool) { keys = append(keys, k) })
		return keys
	}
	if a, b := build(), build(); !slices.Equal(a, b) {
		t.Fatal("two identical builds iterate in different orders")
	}
}

// TestTableSteadyStateAllocs: once grown, a put/find/delete cycle
// allocates nothing.
func TestTableSteadyStateAllocs(t *testing.T) {
	var tab Table[uint64, int]
	for k := uint64(0); k < 16; k++ {
		tab.Put(k)
	}
	for k := uint64(0); k < 16; k++ {
		tab.Delete(k)
	}
	if got := testing.AllocsPerRun(100, func() {
		for k := uint64(100); k < 110; k++ {
			*tab.Put(k)++
		}
		for k := uint64(100); k < 110; k++ {
			tab.Find(k)
			tab.Delete(k)
		}
	}); got != 0 {
		t.Fatalf("warm table cycle allocates %.1f/op, want 0", got)
	}
}

// FuzzTable runs a byte-coded stream of operations against a Table
// and a Go map: op byte%4 selects set, get, delete or increment, and
// the next two bytes make the key (a byte shifted left by 0-63 bits,
// so keys collide in the hash's top bits as well as in the low ones).
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 1, 0, 1, 1, 0})
	f.Add([]byte{0, 255, 63, 3, 255, 63, 2, 255, 63, 0, 0, 0})
	grow := make([]byte, 0, 3*200)
	for k := 0; k < 200; k++ {
		grow = append(grow, byte(k%3), byte(k), byte(k%64))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[uint64, uint64]
		ref := make(map[uint64]uint64)
		for i := 0; i+2 < len(ops); i += 3 {
			k := uint64(ops[i+1]) << (ops[i+2] % 64)
			switch ops[i] % 4 {
			case 0:
				*tab.Put(k) = uint64(i)
				ref[k] = uint64(i)
			case 1:
				v, ok := tab.Get(k)
				if rv, rok := ref[k]; ok != rok || v != rv {
					t.Fatalf("op %d: Get(%#x) = %d, %t; map has %d, %t", i/3, k, v, ok, rv, rok)
				}
			case 2:
				_, rok := ref[k]
				if ok := tab.Delete(k); ok != rok {
					t.Fatalf("op %d: Delete(%#x) = %t; map had it: %t", i/3, k, ok, rok)
				}
				delete(ref, k)
			case 3:
				*tab.Put(k)++
				ref[k]++
			}
			if tab.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, map has %d", i/3, tab.Len(), len(ref))
			}
		}
		checkTable(t, &tab, ref)
	})
}

// checkTable requires tab to hold exactly ref's entries, each once,
// and Find to reach every one of them.
func checkTable(t *testing.T, tab *Table[uint64, uint64], ref map[uint64]uint64) {
	t.Helper()
	var keys []uint64
	tab.ForEach(func(k uint64, v *uint64) {
		keys = append(keys, k)
		if rv, ok := ref[k]; !ok || rv != *v {
			t.Fatalf("ForEach yields %#x=%d; map has %d, %t", k, *v, rv, ok)
		}
	})
	slices.Sort(keys)
	if len(slices.Compact(keys)) != len(ref) || tab.Len() != len(ref) {
		t.Fatalf("ForEach saw %d distinct keys, Len %d, map has %d", len(keys), tab.Len(), len(ref))
	}
	for _, k := range keys {
		if p := tab.Find(k); p == nil || *p != ref[k] {
			t.Fatalf("Find(%#x) misses or differs from the map's %d", k, ref[k])
		}
	}
}
