package cachearray

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallArray(t *testing.T) *Array[int] {
	t.Helper()
	// 4 sets × 2 ways of 64-byte lines.
	return New[int](Config{SizeBytes: 4 * 2 * 64, Assoc: 2, BlockSize: 64})
}

func TestConfigSets(t *testing.T) {
	if got := (Config{SizeBytes: 16 << 20, Assoc: 16, BlockSize: 64}).Sets(); got != 16384 {
		t.Fatalf("LLC sets = %d, want 16384", got)
	}
	if got := (Config{SizeBytes: 256 << 10, Assoc: 32, BlockSize: 1}).Sets(); got != 8192 {
		t.Fatalf("directory sets = %d, want 8192", got)
	}
}

func TestConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, Assoc: 2, BlockSize: 64},
		{SizeBytes: 128, Assoc: 0, BlockSize: 64},
		{SizeBytes: 3 * 2 * 64, Assoc: 2, BlockSize: 64}, // non-power-of-two sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			cfg.Sets()
		}()
	}
}

func TestLookupInsertInvalidate(t *testing.T) {
	a := smallArray(t)
	if a.Lookup(5) != nil {
		t.Fatal("lookup on empty array hit")
	}
	m, _, _, ev := a.Insert(5, nil)
	if ev {
		t.Fatal("insert into empty set evicted")
	}
	*m = 99
	if got := a.Lookup(5); got == nil || *got != 99 {
		t.Fatal("lookup after insert failed")
	}
	if a.Occupied() != 1 {
		t.Fatalf("occupied = %d", a.Occupied())
	}
	meta, ok := a.Invalidate(5)
	if !ok || meta != 99 {
		t.Fatalf("invalidate = %d,%v", meta, ok)
	}
	if a.Lookup(5) != nil || a.Occupied() != 0 {
		t.Fatal("line survived invalidation")
	}
	if _, ok := a.Invalidate(5); ok {
		t.Fatal("double invalidation reported ok")
	}
}

func TestEvictionWithinSet(t *testing.T) {
	a := smallArray(t) // 4 sets, 2 ways; addresses 0,4,8 share set 0
	a.Insert(0, nil)
	a.Insert(4, nil)
	_, evTag, _, ev := a.Insert(8, nil)
	if !ev {
		t.Fatal("full set did not evict")
	}
	if evTag != 0 && evTag != 4 {
		t.Fatalf("evicted %d, not a set member", evTag)
	}
	if a.Occupied() != 2 {
		t.Fatalf("occupied = %d, want 2", a.Occupied())
	}
}

func TestTreePLRUVictim(t *testing.T) {
	// 1 set × 4 ways; inserts touch in order 0,1,2,3.
	a := New[int](Config{SizeBytes: 4 * 64, Assoc: 4, BlockSize: 64})
	for i := LineAddr(0); i < 4; i++ {
		a.Insert(i, nil)
	}
	// Tree-PLRU after touches 0,1,2,3: both tree levels point left → 0.
	if v, _, _ := a.FindVictim(7, nil); v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
	// Touching 0 flips the root right; the right pair's bit still
	// points at 2 (3 was touched after 2).
	a.Lookup(0)
	if v, _, _ := a.FindVictim(7, nil); v != 2 {
		t.Fatalf("victim after touch(0) = %d, want 2", v)
	}
}

func TestFindVictimHonorsPin(t *testing.T) {
	a := New[int](Config{SizeBytes: 4 * 64, Assoc: 4, BlockSize: 64})
	for i := LineAddr(0); i < 4; i++ {
		m, _, _, _ := a.Insert(i, nil)
		*m = int(i)
	}
	pinNot2 := func(_ LineAddr, m *int) bool { return *m != 2 }
	if _, m, _ := a.FindVictim(9, pinNot2); *m != 2 {
		t.Fatalf("victim meta = %d, want 2 (only unpinned way)", *m)
	}
	// All pinned: falls back to choosing among all ways.
	if _, m, valid := a.FindVictim(9, func(LineAddr, *int) bool { return true }); m == nil || !valid {
		t.Fatal("all-pinned victim is not a valid way")
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	a := New[int](Config{SizeBytes: 2 * 64, Assoc: 2, BlockSize: 64})
	a.Insert(0, nil)
	a.Insert(1, nil)
	a.Lookup(1) // 0 becomes PLRU victim
	a.Peek(0)   // must not promote 0
	if v, _, _ := a.FindVictim(2, nil); v != 0 {
		t.Fatalf("peek promoted the line: victim = %d", v)
	}
}

func TestWaysAndForEachAndClear(t *testing.T) {
	a := smallArray(t)
	a.Insert(0, nil)
	a.Insert(4, nil)
	for w, want := range []LineAddr{0, 4} {
		if tag, _, valid := a.Way(0, w); !valid || tag != want {
			t.Fatalf("way %d = %d (valid %t), want %d", w, tag, valid, want)
		}
	}
	n := 0
	a.ForEach(func(addr LineAddr, meta *int) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d", n)
	}
	a.Clear()
	if a.Occupied() != 0 || a.Lookup(0) != nil {
		t.Fatal("clear left lines behind")
	}
}

func TestNonPowerOfTwoAssoc(t *testing.T) {
	// 3-way: tree-PLRU rounds to 4 internally but must only return
	// valid ways when candidates restrict it.
	a := New[int](Config{SizeBytes: 2 * 3 * 64, Assoc: 3, BlockSize: 64})
	for i := 0; i < 12; i++ {
		a.Insert(LineAddr(i), nil)
	}
	if a.Occupied() != 6 {
		t.Fatalf("occupied = %d, want 6", a.Occupied())
	}
}

// TestAgainstReferenceModel property-checks the array against a
// fully-associative-per-set reference with random traffic.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := New[int](Config{SizeBytes: 8 * 4 * 64, Assoc: 4, BlockSize: 64})
		ref := make(map[LineAddr]bool)
		for op := 0; op < 500; op++ {
			addr := LineAddr(r.Intn(64))
			switch r.Intn(3) {
			case 0:
				_, evTag, _, ev := a.Insert(addr, nil)
				if ev {
					delete(ref, evTag)
				}
				ref[addr] = true
			case 1:
				got := a.Lookup(addr) != nil
				if got != ref[addr] {
					return false
				}
			case 2:
				_, got := a.Invalidate(addr)
				if got != ref[addr] {
					return false
				}
				delete(ref, addr)
			}
			if a.Occupied() != len(ref) {
				return false
			}
			// No set may exceed its associativity or hold duplicates.
			for s := 0; s < a.Sets(); s++ {
				seen := map[LineAddr]bool{}
				for w := 0; w < a.Config().Assoc; w++ {
					if tag, _, valid := a.Way(LineAddr(s), w); valid {
						if seen[tag] {
							return false
						}
						seen[tag] = true
						if a.SetIndex(tag) != s {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePLRUTooManyWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("65-way tree-PLRU did not panic")
		}
	}()
	newTreePLRU(1, 65)
}
