package core

import "hscsim/internal/cachearray"

// llcMeta is the per-line LLC metadata. The baseline LLC records only
// validity; the §III-C write-back LLC adds the dirty bit.
type llcMeta struct {
	Dirty bool
}

// llc is the last-level cache, managed entirely by the directory (the
// directory is "backed by the LLC", §II-D). It is a victim cache: lines
// are inserted only by victim write-backs (and TCC write-throughs under
// UseL3OnWT), never on the refill path from memory.
type llc struct {
	arr *cachearray.Array[llcMeta]
	mem MemPort

	stats LLCStats
}

// LLCStats are the LLC's counters.
type LLCStats struct {
	Reads          uint64 `stat:"reads"`
	ReadHits       uint64 `stat:"read_hits"`
	Writes         uint64 `stat:"writes"`
	DirtyEvictions uint64 `stat:"dirty_evictions"`
}

func newLLC(geo Geometry, mem MemPort) *llc {
	return &llc{arr: cachearray.New[llcMeta](geo.LLCArray()), mem: mem}
}

// reset empties the LLC and zeroes its counters.
func (l *llc) reset() {
	l.arr.Reset()
	l.stats = LLCStats{}
}

// read probes the LLC for addr. It returns true on hit. Misses do NOT
// allocate (victim cache). The caller models the access latency.
func (l *llc) read(addr cachearray.LineAddr) bool {
	l.stats.Reads++
	if l.arr.Lookup(addr) != nil {
		l.stats.ReadHits++
		return true
	}
	return false
}

// insert writes addr into the LLC, setting (or preserving) the dirty
// bit. A displaced dirty line is written back to memory (only the
// write-back LLC ever holds dirty lines). It returns true when a dirty
// line was displaced, which puts the insertion on the critical path
// (§III-C's "minor latency penalty").
func (l *llc) insert(addr cachearray.LineAddr, dirty bool) (displacedDirty bool) {
	l.stats.Writes++
	if m := l.arr.Lookup(addr); m != nil {
		m.Dirty = m.Dirty || dirty
		return false
	}
	m, evTag, evMeta, evicted := l.arr.Insert(addr, nil)
	if evicted && evMeta.Dirty {
		l.stats.DirtyEvictions++
		l.mem.Write(evTag)
		displacedDirty = true
	}
	m.Dirty = dirty
	return displacedDirty
}

// invalidate drops addr from the LLC without writing it back. Used for
// bypassing writers (TCC WT without UseL3OnWT, DMA writes): the bypass
// write carries the full, newer line to memory, so the LLC copy is
// simply stale.
func (l *llc) invalidate(addr cachearray.LineAddr) {
	l.arr.Invalidate(addr)
}

// present reports whether addr is cached (no replacement-state touch).
func (l *llc) present(addr cachearray.LineAddr) bool {
	return l.arr.Peek(addr) != nil
}

// dirtyLine reports whether addr is cached dirty.
func (l *llc) dirtyLine(addr cachearray.LineAddr) bool {
	m := l.arr.Peek(addr)
	return m != nil && m.Dirty
}
