package core

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/stats"
)

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
	arr  *cachearray.Array[llcMeta]
	opts Options
	mem  MemPort

	reads      *stats.Counter
	readHits   *stats.Counter
	writes     *stats.Counter
	dirtyEvict *stats.Counter
}

func newLLC(geo Geometry, opts Options, mem MemPort, sc *stats.Scope) *llc {
	return &llc{
		arr: cachearray.New[llcMeta](cachearray.Config{
			SizeBytes: geo.LLCSizeBytes,
			Assoc:     geo.LLCAssoc,
			BlockSize: geo.BlockSize,
		}, nil),
		opts:       opts,
		mem:        mem,
		reads:      sc.Counter("reads"),
		readHits:   sc.Counter("read_hits"),
		writes:     sc.Counter("writes"),
		dirtyEvict: sc.Counter("dirty_evictions"),
	}
}

// read probes the LLC for addr. It returns true on hit. Misses do NOT
// allocate (victim cache). The caller models the access latency.
func (l *llc) read(addr cachearray.LineAddr) bool {
	l.reads.Inc()
	if l.arr.Lookup(addr) != nil {
		l.readHits.Inc()
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
	l.writes.Inc()
	if ln := l.arr.Lookup(addr); ln != nil {
		ln.Meta.Dirty = ln.Meta.Dirty || dirty
		return false
	}
	ln, evTag, evMeta, evicted := l.arr.Insert(addr, nil)
	if evicted && evMeta.Dirty {
		l.dirtyEvict.Inc()
		l.mem.Write(evTag)
		displacedDirty = true
	}
	ln.Meta.Dirty = dirty
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
	ln := l.arr.Peek(addr)
	return ln != nil && ln.Meta.Dirty
}
