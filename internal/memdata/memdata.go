// Package memdata provides the functional (value-level) view of the
// unified memory space.
//
// The timing simulation decides *when* an access completes; this package
// decides *what value* it observes. Loads read the current word, stores
// update it at their point of visibility, and atomics perform their
// read-modify-write at the serialization point (the TCC for device-scope
// atomics, the system-level directory for system-scope atomics), which is
// exactly the visibility model of the simulated protocol. Keeping values
// functional lets the CHAI workloads synchronize through real flags and
// work queues, so runs terminate for the same reason the originals do.
package memdata

import (
	"fmt"

	"hscsim/internal/recycle"
)

// Addr is a byte address in the unified memory space.
type Addr uint64

// AtomicOp identifies a read-modify-write operation.
type AtomicOp uint8

// Supported atomic operations.
const (
	AtomicAdd AtomicOp = iota
	AtomicMax
	AtomicMin
	AtomicExch
	AtomicCAS
	AtomicAnd
	AtomicOr
)

func (op AtomicOp) String() string {
	switch op {
	case AtomicAdd:
		return "Add"
	case AtomicMax:
		return "Max"
	case AtomicMin:
		return "Min"
	case AtomicExch:
		return "Exch"
	case AtomicCAS:
		return "CAS"
	case AtomicAnd:
		return "And"
	case AtomicOr:
		return "Or"
	}
	return "?"
}

// Page geometry: 4 KB pages of 512 aligned words.
const (
	pageShift = 12
	pageWords = 1 << (pageShift - 3)
)

// page is one 4 KB page of words, with a bitmap of the words ever
// written (for Len).
type page struct {
	words   [pageWords]uint64
	written [pageWords / 64]uint64
}

// Memory is a sparse store of aligned 64-bit words, kept in 4 KB pages
// allocated on first write. Addresses are rounded down to 8-byte
// alignment. The zero value is an empty memory; New returns one.
type Memory struct {
	pages recycle.Table[Addr, *page] // keyed by page number (a >> pageShift)
	// last caches the most recently used page. CPU threads, GPU waves
	// and directory RMWs interleave their accesses, yet over the 60
	// paper-sweep cells of input seed 0, 90.9 % of the 6.82 M page
	// lookups hit it (9.0 % found another resident page). Replaying that
	// recorded access sequence took 35 ms with the cache and 80 ms
	// through the page map alone (medians of 10 pairs, 2-vCPU Xeon,
	// go1.24).
	last    *page
	lastNum Addr
	n       int // distinct words written

	// ro lists the read-only word ranges [start, end) SetReadOnly
	// installed, their bounds rounded out to whole words.
	ro [][2]Addr
}

// ReadOnlyWriteError is the panic value of a write into a word a
// workload declared read-only.
type ReadOnlyWriteError struct {
	Addr Addr
}

func (e *ReadOnlyWriteError) Error() string {
	return fmt.Sprintf("memdata: write to %#x, inside a range the workload declared read-only", uint64(e.Addr))
}

// New returns an empty memory (all words read as zero).
func New() *Memory { return &Memory{} }

// Reset empties the memory, drops its pages and clears its read-only
// ranges. Pages are the one store that grows with a workload's
// footprint rather than with the simulated geometry, so a kept memory
// does not carry one job's pages into the next.
func (m *Memory) Reset() { *m = Memory{ro: m.ro[:0]} }

// SetReadOnly makes every word that overlaps one of the byte ranges
// [start, end) read-only, in place of the ranges set before: a later
// Write to one panics with a *ReadOnlyWriteError. Its value is then
// the one it holds now for as long as the ranges stay, which lets a
// workload thread read it when it issues a load (package prog).
func (m *Memory) SetReadOnly(ranges [][2]Addr) {
	m.ro = m.ro[:0]
	for _, r := range ranges {
		m.ro = append(m.ro, [2]Addr{r[0] &^ 7, (r[1] + 7) &^ 7})
	}
}

// IsReadOnly reports whether the word containing a is read-only.
func (m *Memory) IsReadOnly(a Addr) bool {
	a &^= 7
	for _, r := range m.ro {
		if a >= r[0] && a < r[1] {
			return true
		}
	}
	return false
}

// find returns page num, or nil when no word in it was ever written.
func (m *Memory) find(num Addr) *page {
	if m.last != nil && m.lastNum == num {
		return m.last
	}
	p, _ := m.pages.Get(num)
	if p != nil {
		m.last, m.lastNum = p, num
	}
	return p
}

// wordIndex returns the index of a's word within its page.
func wordIndex(a Addr) uint { return uint(a>>3) & (pageWords - 1) }

// Read returns the 64-bit word containing address a.
func (m *Memory) Read(a Addr) uint64 {
	if p := m.find(a >> pageShift); p != nil {
		return p.words[wordIndex(a)]
	}
	return 0
}

// Write stores v into the word containing address a. It panics with a
// *ReadOnlyWriteError when that word is read-only.
func (m *Memory) Write(a Addr, v uint64) {
	if len(m.ro) > 0 && m.IsReadOnly(a) {
		panic(&ReadOnlyWriteError{Addr: a})
	}
	num := a >> pageShift
	p := m.find(num)
	if p == nil {
		p = new(page)
		*m.pages.Put(num) = p
		m.last, m.lastNum = p, num
	}
	i := wordIndex(a)
	if bit := uint64(1) << (i & 63); p.written[i>>6]&bit == 0 {
		p.written[i>>6] |= bit
		m.n++
	}
	p.words[i] = v
}

// RMW applies op atomically to the word containing a and returns the old
// value. For AtomicCAS, operand is the desired value and compare the
// expected value; the swap happens only when the stored word equals
// compare.
func (m *Memory) RMW(a Addr, op AtomicOp, operand, compare uint64) (old uint64) {
	old = m.Read(a)
	v := old
	switch op {
	case AtomicAdd:
		v = old + operand
	case AtomicMax:
		if int64(operand) <= int64(old) {
			return old
		}
		v = operand
	case AtomicMin:
		if int64(operand) >= int64(old) {
			return old
		}
		v = operand
	case AtomicExch:
		v = operand
	case AtomicCAS:
		if old != compare {
			return old
		}
		v = operand
	case AtomicAnd:
		v = old & operand
	case AtomicOr:
		v = old | operand
	default:
		return old
	}
	m.Write(a, v)
	return old
}

// Len reports how many distinct words have been written.
func (m *Memory) Len() int { return m.n }

// Snapshot returns the final memory image: every written word with a
// non-zero value. Zero-valued words are dropped so that "written zero"
// and "never written" compare equal — both read as zero, and which of
// the two a run leaves behind can legitimately differ with timing. The
// differential conformance harness compares these images across
// protocol variants.
func (m *Memory) Snapshot() map[Addr]uint64 {
	out := make(map[Addr]uint64, m.n)
	m.pages.ForEach(func(num Addr, p **page) {
		for i, v := range &(*p).words {
			if v != 0 {
				out[num<<pageShift|Addr(i)<<3] = v
			}
		}
	})
	return out
}
