package recycle

import "math/bits"

// Table is an open-addressing hash table from integer keys (line
// addresses, page numbers) to values, for the per-line in-flight state
// the controllers look up on every message. It hashes by Fibonacci
// multiplication, probes linearly and deletes by backward shift, so it
// keeps no tombstones. The zero value is empty and ready to use.
//
// ForEach visits entries in slot order, which depends only on the
// sequence of Puts and Deletes that built the table, so iteration is
// deterministic, unlike a Go map's.
//
// Pointers returned by Find and Put stay valid until the next Put or
// Delete. The largest key, ^K(0), is reserved: Put panics on it.
type Table[K ~uint64, V any] struct {
	slots []tableSlot[K, V]
	shift uint // 64 - log2(len(slots))
	n     int
}

// tableSlot stores key+1, so a zero key marks an empty slot.
type tableSlot[K ~uint64, V any] struct {
	key K
	val V
}

// minTableSlots is the slot count of a table's first allocation.
const minTableSlots = 8

// home is k's preferred slot: the top bits of k times 2^64/φ.
func (t *Table[K, V]) home(k K) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift)
}

// Len reports the number of entries.
func (t *Table[K, V]) Len() int { return t.n }

// Find returns a pointer to k's value, or nil when k is absent.
func (t *Table[K, V]) Find(k K) *V {
	want := k + 1
	if t.n == 0 || want == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == want {
			return &s.val
		}
		if s.key == 0 {
			return nil
		}
	}
}

// Get returns k's value and whether k is present.
func (t *Table[K, V]) Get(k K) (v V, ok bool) {
	if p := t.Find(k); p != nil {
		return *p, true
	}
	return v, false
}

// Put returns a pointer to k's value, first adding k with the zero
// value when it is absent.
func (t *Table[K, V]) Put(k K) *V {
	want := k + 1
	if want == 0 {
		panic("recycle: Table key ^0 is reserved")
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == want {
			return &s.val
		}
		if s.key == 0 {
			s.key = want
			t.n++
			return &s.val
		}
	}
}

// Delete removes k and reports whether it was present. Later entries
// of k's probe run shift back into the hole, so every entry stays
// reachable from its home slot without tombstones.
func (t *Table[K, V]) Delete(k K) bool {
	want := k + 1
	if t.n == 0 || want == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != want {
		if t.slots[i].key == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its
		// probe path, from its home slot up to j.
		if h := t.home(t.slots[j].key - 1); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[K, V]{}
	t.n--
	return true
}

// Reset removes every entry and keeps the slot array, so a table
// refilled to its old size allocates nothing. The slot order ForEach
// visits then also depends on the kept capacity.
func (t *Table[K, V]) Reset() {
	clear(t.slots)
	t.n = 0
}

// ForEach calls fn for every entry in slot order. fn may modify the
// value in place but must not Put or Delete.
func (t *Table[K, V]) ForEach(fn func(k K, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			fn(s.key-1, &s.val)
		}
	}
}

// grow doubles the slot array (or makes the first one) and re-inserts
// every entry.
func (t *Table[K, V]) grow() {
	old := t.slots
	n := 2 * len(old)
	if n == 0 {
		n = minTableSlots
	}
	t.slots = make([]tableSlot[K, V], n)
	t.shift = 65 - uint(bits.Len(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key - 1)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
