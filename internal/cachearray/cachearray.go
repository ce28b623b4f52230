// Package cachearray implements the set-associative tag arrays used by
// every cache-like structure in the simulated APU: the CorePair L1s and
// L2, the GPU TCP/TCC/SQC, the last-level cache, and the state-tracking
// directory cache itself.
package cachearray

import (
	"errors"
	"fmt"
	"math/bits"
)

// LineBytes is the size of every cache line in the simulated APU
// (Table II). Addresses become line addresses by a shift of 6
// throughout the simulator.
const LineBytes = 64

// LineAddr is a cache-line address (byte address / LineBytes).
type LineAddr uint64

// Config sizes a cache array.
type Config struct {
	SizeBytes int // total capacity in bytes
	Assoc     int // ways per set
	BlockSize int // bytes per way: LineBytes, or 1 for an array sized in entries
}

// Check reports why New would refuse the configuration, or nil.
func (c Config) Check() error {
	if c.Assoc <= 0 || c.BlockSize <= 0 {
		return errors.New("cachearray: non-positive associativity or block size")
	}
	sets := c.SizeBytes / (c.Assoc * c.BlockSize)
	if sets <= 0 {
		return fmt.Errorf("cachearray: config %+v yields no sets", c)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachearray: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration. It
// panics if Check fails.
func (c Config) Sets() int {
	if err := c.Check(); err != nil {
		panic(err.Error())
	}
	return c.SizeBytes / (c.Assoc * c.BlockSize)
}

// Array is a set-associative array with tree-PLRU replacement (the
// paper's default). T carries protocol-specific metadata (MOESI state,
// VI state, directory entry, dirty bit, ...).
//
// Tags and metadata live in parallel set-major slices, so a lookup
// scans one set's 8-byte tags contiguously. A tag slot stores addr+1,
// which makes 0 mean "invalid way" without a separate valid bit.
type Array[T any] struct {
	cfg      Config
	assoc    int
	setMask  LineAddr
	tags     []LineAddr // sets*assoc: addr+1, or 0 for an invalid way
	meta     []T        // parallel to tags
	plru     treePLRU
	occupied int
}

// New creates an empty array.
func New[T any](cfg Config) *Array[T] {
	sets := cfg.Sets()
	return &Array[T]{
		cfg:     cfg,
		assoc:   cfg.Assoc,
		setMask: LineAddr(sets - 1),
		tags:    make([]LineAddr, sets*cfg.Assoc),
		meta:    make([]T, sets*cfg.Assoc),
		plru:    newTreePLRU(sets, cfg.Assoc),
	}
}

// Config returns the array's configuration.
func (a *Array[T]) Config() Config { return a.cfg }

// Sets returns the number of sets.
func (a *Array[T]) Sets() int { return int(a.setMask) + 1 }

// Occupied returns the number of valid lines.
func (a *Array[T]) Occupied() int { return a.occupied }

// SetIndex maps a line address to its set.
func (a *Array[T]) SetIndex(addr LineAddr) int { return int(addr & a.setMask) }

// find returns addr's set and way, with w = -1 on a miss.
func (a *Array[T]) find(addr LineAddr) (s, w int) {
	s = int(addr & a.setMask)
	base := s * a.assoc
	want := addr + 1
	for w, t := range a.tags[base : base+a.assoc] {
		if t == want {
			return s, w
		}
	}
	return s, -1
}

// Lookup finds addr and returns its metadata, touching the replacement
// state. It returns nil on a miss.
func (a *Array[T]) Lookup(addr LineAddr) *T {
	s, w := a.find(addr)
	if w < 0 {
		return nil
	}
	a.plru.touch(s, w)
	return &a.meta[s*a.assoc+w]
}

// Peek finds addr without touching replacement state. Returns nil on miss.
func (a *Array[T]) Peek(addr LineAddr) *T {
	if s, w := a.find(addr); w >= 0 {
		return &a.meta[s*a.assoc+w]
	}
	return nil
}

// Way reports way w of addr's set: its tag and metadata, and whether
// it holds a valid line. meta is never nil.
func (a *Array[T]) Way(addr LineAddr, w int) (tag LineAddr, meta *T, valid bool) {
	return a.slot(int(addr&a.setMask)*a.assoc + w)
}

// slot reports the tag, metadata and validity of slot i.
func (a *Array[T]) slot(i int) (tag LineAddr, meta *T, valid bool) {
	return a.tags[i] - 1, &a.meta[i], a.tags[i] != 0
}

// victim returns the way Insert would fill for a miss in set s: the
// first invalid way, otherwise the policy's choice among the ways the
// pin function allows (pin != nil && pin(tag, meta) excludes a way; if
// every way is pinned the policy chooses among all of them).
func (a *Array[T]) victim(s int, pin func(LineAddr, *T) bool) int {
	base := s * a.assoc
	ways := a.tags[base : base+a.assoc]
	for w, t := range ways {
		if t == 0 {
			return w
		}
	}
	all := uint64(1)<<uint(a.assoc) - 1
	mask := all
	if pin != nil {
		mask = 0
		for w, t := range ways {
			if !pin(t-1, &a.meta[base+w]) {
				mask |= 1 << uint(w)
			}
		}
		if mask == 0 {
			mask = all
		}
	}
	return a.plru.victim(s, mask)
}

// FindVictim reports the way Insert would fill for addr (see victim
// for the choice): its tag and metadata, and whether it holds a valid
// line that Insert would evict.
func (a *Array[T]) FindVictim(addr LineAddr, pin func(LineAddr, *T) bool) (tag LineAddr, meta *T, valid bool) {
	s := int(addr & a.setMask)
	return a.slot(s*a.assoc + a.victim(s, pin))
}

// Insert places addr into its set, filling the way FindVictim reports,
// in one scan of the set's tags for a hit or a free way. It returns
// the line's metadata (zeroed) and, if a valid line was displaced, its
// previous tag and metadata. Inserting a resident tag reuses its way
// (metadata reset, no eviction) rather than duplicating it in another
// way.
func (a *Array[T]) Insert(addr LineAddr, pin func(LineAddr, *T) bool) (meta *T, evictedTag LineAddr, evictedMeta T, evicted bool) {
	s := int(addr & a.setMask)
	base := s * a.assoc
	want := addr + 1
	w := -1
	for i, t := range a.tags[base : base+a.assoc] {
		if t == want {
			w = i
			break
		}
		if t == 0 && w < 0 {
			w = i
		}
	}
	switch {
	case w < 0:
		w = a.victim(s, pin)
		evictedTag, evictedMeta, evicted = a.tags[base+w]-1, a.meta[base+w], true
	case a.tags[base+w] == 0:
		a.occupied++
	}
	i := base + w
	var zero T
	a.tags[i] = want
	a.meta[i] = zero
	a.plru.touch(s, w)
	return &a.meta[i], evictedTag, evictedMeta, evicted
}

// Invalidate removes addr if present, returning its metadata.
func (a *Array[T]) Invalidate(addr LineAddr) (meta T, ok bool) {
	s, w := a.find(addr)
	if w < 0 {
		return meta, false
	}
	i := s*a.assoc + w
	meta = a.meta[i]
	var zero T
	a.tags[i] = 0
	a.meta[i] = zero
	a.occupied--
	return meta, true
}

// Clear invalidates every line (bulk invalidation at GPU acquire points).
func (a *Array[T]) Clear() {
	clear(a.tags)
	clear(a.meta)
	a.occupied = 0
}

// ForEach visits every valid line. Mutating line metadata is allowed;
// do not invalidate lines from inside the callback.
func (a *Array[T]) ForEach(fn func(addr LineAddr, meta *T)) {
	for i, t := range a.tags {
		if t != 0 {
			fn(t-1, &a.meta[i])
		}
	}
}

// treePLRU is tree pseudo-LRU with one word of node bits per set;
// associativity is rounded up to a power of two internally. Node n's
// children are 2n+1 (left) and 2n+2 (right); a set bit points the next
// victim at the right subtree.
type treePLRU struct {
	ways  int         // associativity rounded up to a power of two
	masks []touchMask // per way; shared by every array of this width
	bits  []uint64    // one word of tree bits per set (ways <= 64)
}

// touchMask is the effect of touching one way: the nodes on its
// root-to-leaf path that must point right (set) and left (clr), i.e.
// away from the way.
type touchMask struct{ set, clr uint64 }

// touchMasks[k] holds the per-way masks for 1<<k ways, k = 0..6.
var touchMasks = func() (t [7][]touchMask) {
	for k := range t {
		ways := 1 << uint(k)
		t[k] = make([]touchMask, ways)
		for w := range t[k] {
			m := &t[k][w]
			node, lo, hi := 0, 0, ways
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if w < mid {
					m.set |= 1 << uint(node)
					node, hi = 2*node+1, mid
				} else {
					m.clr |= 1 << uint(node)
					node, lo = 2*node+2, mid
				}
			}
		}
	}
	return t
}()

// newTreePLRU sizes the policy for sets × assoc ways.
func newTreePLRU(sets, assoc int) treePLRU {
	if assoc > 64 {
		panic("cachearray: tree-PLRU supports at most 64 ways")
	}
	k := bits.Len(uint(assoc - 1))
	return treePLRU{ways: 1 << uint(k), masks: touchMasks[k], bits: make([]uint64, sets)}
}

// touch points every node on way w's path away from it.
func (p *treePLRU) touch(s, w int) {
	m := p.masks[w]
	p.bits[s] = p.bits[s]&^m.clr | m.set
}

// victim follows set s's tree bits to a leaf, taking the other side
// wherever the pointed-to subtree holds no candidate (a bitmask of the
// ways that may be chosen; it must be non-empty).
func (p *treePLRU) victim(s int, candidates uint64) int {
	word := p.bits[s]
	node, lo, hi := 0, 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		right := word&(1<<uint(node)) != 0
		if right && candidates&span(mid, hi) == 0 || !right && candidates&span(lo, mid) == 0 {
			right = !right
		}
		if right {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	return lo
}

// span is the bitmask of ways [lo, hi), hi <= 64.
func span(lo, hi int) uint64 {
	return (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
}
