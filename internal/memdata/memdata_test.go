package memdata

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestReadWriteAlignment(t *testing.T) {
	m := New()
	m.Write(0x100, 42)
	// Any address within the same 8-byte word reads the same value.
	for off := Addr(0); off < 8; off++ {
		if got := m.Read(0x100 + off); got != 42 {
			t.Fatalf("Read(0x100+%d) = %d, want 42", off, got)
		}
	}
	if m.Read(0x108) != 0 {
		t.Fatal("adjacent word should be zero")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestZeroDefault(t *testing.T) {
	m := New()
	if m.Read(0xdeadbeef) != 0 {
		t.Fatal("unwritten word should read zero")
	}
}

func TestRMWOps(t *testing.T) {
	cases := []struct {
		op       AtomicOp
		init     uint64
		operand  uint64
		compare  uint64
		want     uint64 // stored value after
		wantName string
	}{
		{AtomicAdd, 10, 5, 0, 15, "Add"},
		{AtomicMax, 10, 20, 0, 20, "Max"},
		{AtomicMax, 30, 20, 0, 30, "Max"},
		{AtomicMin, 10, 5, 0, 5, "Min"},
		{AtomicMin, 3, 5, 0, 3, "Min"},
		{AtomicExch, 7, 9, 0, 9, "Exch"},
		{AtomicCAS, 7, 9, 7, 9, "CAS"}, // matching compare swaps
		{AtomicCAS, 7, 9, 8, 7, "CAS"}, // mismatched compare leaves value
		{AtomicAnd, 0b1100, 0b1010, 0, 0b1000, "And"},
		{AtomicOr, 0b1100, 0b1010, 0, 0b1110, "Or"},
	}
	for i, c := range cases {
		m := New()
		m.Write(8, c.init)
		old := m.RMW(8, c.op, c.operand, c.compare)
		if old != c.init {
			t.Errorf("case %d (%s): old = %d, want %d", i, c.op, old, c.init)
		}
		if got := m.Read(8); got != c.want {
			t.Errorf("case %d (%s): stored = %d, want %d", i, c.op, got, c.want)
		}
		if c.op.String() != c.wantName {
			t.Errorf("case %d: String = %q, want %q", i, c.op, c.wantName)
		}
	}
}

func TestMaxMinAreSigned(t *testing.T) {
	m := New()
	neg := uint64(0xFFFFFFFFFFFFFFFF) // -1 as int64
	m.Write(0, neg)
	m.RMW(0, AtomicMax, 1, 0)
	if m.Read(0) != 1 {
		t.Fatalf("signed max(-1, 1) = %d, want 1", m.Read(0))
	}
	m.Write(8, 1)
	m.RMW(8, AtomicMin, neg, 0)
	if m.Read(8) != neg {
		t.Fatalf("signed min(1, -1) = %d, want -1", m.Read(8))
	}
}

// refRMW is the reference read-modify-write: the value op leaves in a
// word holding old, and whether it stores at all.
func refRMW(old uint64, op AtomicOp, operand, compare uint64) (v uint64, stores bool) {
	switch op {
	case AtomicAdd:
		return old + operand, true
	case AtomicMax:
		return operand, int64(operand) > int64(old)
	case AtomicMin:
		return operand, int64(operand) < int64(old)
	case AtomicExch:
		return operand, true
	case AtomicCAS:
		return operand, old == compare
	case AtomicAnd:
		return old & operand, true
	case AtomicOr:
		return old | operand, true
	}
	return old, false
}

// TestRMWAgainstReference property-checks RMW against an independent
// model over random operation sequences.
func TestRMWAgainstReference(t *testing.T) {
	type step struct {
		Op      uint8
		Addr    uint16
		Operand uint64
		Compare uint64
	}
	f := func(steps []step) bool {
		m := New()
		ref := make(map[Addr]uint64)
		for _, s := range steps {
			op := AtomicOp(s.Op % 7)
			a := Addr(s.Addr) &^ 7
			old := m.RMW(Addr(s.Addr), op, s.Operand, s.Compare)
			refOld := ref[a]
			if old != refOld {
				return false
			}
			if v, stores := refRMW(refOld, op, s.Operand, s.Compare); stores {
				ref[a] = v
			}
			if m.Read(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// regionBases are where accesses land in TestPagesAgainstReference: low
// memory, the workloads' data region, their kernel-code region and the
// top of the address space.
var regionBases = []Addr{0, 0x1000_0000, 0xF800_0000, 0xFFFF_FFFF_FFFF_0000}

// TestPagesAgainstReference property-checks Read, Write and RMW against
// a word map over windows of three pages in each region, so consecutive
// accesses keep crossing page boundaries and regions. Afterwards every
// word reads back, Snapshot equals the reference image, and Len counts
// the distinct words ever stored.
func TestPagesAgainstReference(t *testing.T) {
	type step struct {
		Kind    uint8 // read, write or RMW
		Region  uint8
		Off     uint16
		Value   uint64
		Compare uint64
	}
	f := func(steps []step) bool {
		m := New()
		ref := make(map[Addr]uint64)
		stored := make(map[Addr]bool)
		for _, s := range steps {
			a := regionBases[int(s.Region)%len(regionBases)] + Addr(s.Off)%(3*4096)
			w := a &^ 7
			switch s.Kind % 3 {
			case 0:
				if m.Read(a) != ref[w] {
					return false
				}
			case 1:
				m.Write(a, s.Value)
				ref[w], stored[w] = s.Value, true
			case 2:
				op := AtomicOp(s.Value % 7)
				if m.RMW(a, op, s.Value, s.Compare) != ref[w] {
					return false
				}
				if v, stores := refRMW(ref[w], op, s.Value, s.Compare); stores {
					ref[w], stored[w] = v, true
				}
			}
		}
		image := make(map[Addr]uint64)
		for a, v := range ref {
			if m.Read(a) != v {
				return false
			}
			if v != 0 {
				image[a] = v
			}
		}
		return reflect.DeepEqual(m.Snapshot(), image) && m.Len() == len(stored)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLenCountsDistinctWrittenWords: rewrites and zero writes count once
// per word; an RMW that stores nothing (failed CAS, Max below the word)
// counts nothing.
func TestLenCountsDistinctWrittenWords(t *testing.T) {
	m := New()
	m.Write(0x1000_0000, 1)
	m.Write(0x1000_0004, 2) // same word
	m.Write(0x1000_0008, 0) // a written zero still counts
	m.RMW(0x1000_1000, AtomicCAS, 5, 9)
	m.RMW(0x1000_1008, AtomicMax, 0, 0)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.RMW(0x1000_1000, AtomicAdd, 0, 0) // stores (the unchanged) zero
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if img := m.Snapshot(); len(img) != 1 || img[0x1000_0000] != 2 {
		t.Fatalf("Snapshot = %v, want only the non-zero word", img)
	}
}

var sinkWord uint64

// TestReadUnwrittenPageAllocs: reading a page no write has touched
// neither allocates nor creates the page.
func TestReadUnwrittenPageAllocs(t *testing.T) {
	m := New()
	m.Write(0x1000_0000, 7)
	if got := testing.AllocsPerRun(100, func() { sinkWord = m.Read(0xF800_0000) }); got != 0 {
		t.Fatalf("Read of an unwritten page allocates %.1f/op, want 0", got)
	}
	if m.Len() != 1 || m.pages.Len() != 1 {
		t.Fatalf("Len = %d, pages = %d after reads; want 1, 1", m.Len(), m.pages.Len())
	}
}

func TestOpStringUnknown(t *testing.T) {
	if AtomicOp(99).String() != "?" {
		t.Fatal("unknown op should stringify as ?")
	}
}

// TestReadOnlyRanges: SetReadOnly covers every word overlapping a
// range, a Write or a storing RMW into one panics naming the address
// and leaves the word unchanged, and Reset clears the ranges.
func TestReadOnlyRanges(t *testing.T) {
	m := New()
	m.Write(0x100, 7)
	m.Write(0x200, 8)
	m.SetReadOnly([][2]Addr{{0x104, 0x109}, {0x300, 0x308}})
	for a, want := range map[Addr]bool{
		0xF8: false, 0x100: true, 0x107: true, 0x108: true, 0x10F: true, 0x110: false,
		0x2F8: false, 0x300: true, 0x308: false,
	} {
		if got := m.IsReadOnly(a); got != want {
			t.Errorf("IsReadOnly(%#x) = %v, want %v", uint64(a), got, want)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			e, ok := recover().(*ReadOnlyWriteError)
			if !ok || e.Addr != 0x103 || e.Error() != "memdata: write to 0x103, inside a range the workload declared read-only" {
				t.Errorf("%s: panicked with %v, want a ReadOnlyWriteError at 0x103", name, e)
			}
		}()
		f()
	}
	mustPanic("Write", func() { m.Write(0x103, 1) })
	mustPanic("RMW", func() { m.RMW(0x103, AtomicAdd, 1, 0) })
	if got := m.RMW(0x100, AtomicCAS, 9, 1); got != 7 || m.Read(0x100) != 7 {
		t.Fatalf("a failing CAS on a read-only word returned %d and left %d; want 7 and no panic", got, m.Read(0x100))
	}
	m.Write(0x200, 9) // outside every range
	m.SetReadOnly(nil)
	m.Write(0x100, 1)
	m.SetReadOnly([][2]Addr{{0x100, 0x108}})
	m.Reset()
	if m.IsReadOnly(0x100) {
		t.Fatal("Reset kept a read-only range")
	}
	m.Write(0x100, 2)
}
