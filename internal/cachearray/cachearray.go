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

// LineAddr is a cache-line address (byte address >> log2(blockSize)).
type LineAddr uint64

// Config sizes a cache array.
type Config struct {
	SizeBytes int // total capacity in bytes
	Assoc     int // ways per set
	BlockSize int // line size in bytes (64 throughout the paper)
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

// Line is one way of one set. T carries protocol-specific metadata
// (MOESI state, VI state, directory entry, dirty bit, ...).
type Line[T any] struct {
	Valid bool
	Tag   LineAddr
	Meta  T
}

// Array is a set-associative array of Lines with a replacement policy.
type Array[T any] struct {
	cfg      Config
	sets     int
	setMask  LineAddr
	lines    []Line[T] // sets*assoc, set-major
	repl     Policy
	occupied int
}

// Policy chooses victims within a set and observes accesses.
// Implementations are per-array (they size themselves from sets/assoc).
type Policy interface {
	// Touch records an access to way w of set s.
	Touch(s, w int)
	// Victim proposes the way of set s to evict. candidates is a bitmask
	// of ways that may be chosen (invalid or deprioritized ways are
	// resolved by the caller before this is consulted).
	Victim(s int, candidates uint64) int
}

// New creates an array with the given replacement policy constructor.
// If newPolicy is nil, tree-PLRU (the paper's default) is used.
func New[T any](cfg Config, newPolicy func(sets, assoc int) Policy) *Array[T] {
	sets := cfg.Sets()
	if newPolicy == nil {
		newPolicy = NewTreePLRU
	}
	return &Array[T]{
		cfg:     cfg,
		sets:    sets,
		setMask: LineAddr(sets - 1),
		lines:   make([]Line[T], sets*cfg.Assoc),
		repl:    newPolicy(sets, cfg.Assoc),
	}
}

// Config returns the array's configuration.
func (a *Array[T]) Config() Config { return a.cfg }

// Sets returns the number of sets.
func (a *Array[T]) Sets() int { return a.sets }

// Occupied returns the number of valid lines.
func (a *Array[T]) Occupied() int { return a.occupied }

// SetIndex maps a line address to its set.
func (a *Array[T]) SetIndex(addr LineAddr) int { return int(addr & a.setMask) }

func (a *Array[T]) line(s, w int) *Line[T] { return &a.lines[s*a.cfg.Assoc+w] }

// Lookup finds addr and returns its line, touching the replacement state.
// Returns nil on miss.
func (a *Array[T]) Lookup(addr LineAddr) *Line[T] {
	s := a.SetIndex(addr)
	for w := 0; w < a.cfg.Assoc; w++ {
		ln := a.line(s, w)
		if ln.Valid && ln.Tag == addr {
			a.repl.Touch(s, w)
			return ln
		}
	}
	return nil
}

// Peek finds addr without touching replacement state. Returns nil on miss.
func (a *Array[T]) Peek(addr LineAddr) *Line[T] {
	s := a.SetIndex(addr)
	for w := 0; w < a.cfg.Assoc; w++ {
		ln := a.line(s, w)
		if ln.Valid && ln.Tag == addr {
			return ln
		}
	}
	return nil
}

// FindVictim returns the line that Insert would replace for addr: an
// invalid way if one exists, otherwise the policy's choice among ways
// allowed by the pin function (pin!=nil && pin(meta)==true excludes a
// way; if everything is pinned the policy chooses among all ways).
func (a *Array[T]) FindVictim(addr LineAddr, pin func(*Line[T]) bool) *Line[T] {
	s := a.SetIndex(addr)
	var mask uint64
	for w := 0; w < a.cfg.Assoc; w++ {
		ln := a.line(s, w)
		if !ln.Valid {
			return ln
		}
		if pin == nil || !pin(ln) {
			mask |= 1 << uint(w)
		}
	}
	if mask == 0 {
		mask = (1 << uint(a.cfg.Assoc)) - 1
	}
	return a.line(s, a.repl.Victim(s, mask))
}

// Insert places addr into the set, evicting the victim chosen as in
// FindVictim. It returns the line (now tagged addr with zero metadata)
// and, if a valid line was displaced, its previous tag and metadata.
// Inserting a resident tag reuses its line (metadata reset, no
// eviction) rather than duplicating it in another way.
func (a *Array[T]) Insert(addr LineAddr, pin func(*Line[T]) bool) (ln *Line[T], evictedTag LineAddr, evictedMeta T, evicted bool) {
	if existing := a.Lookup(addr); existing != nil {
		var zero T
		existing.Meta = zero
		return existing, 0, zero, false
	}
	ln = a.FindVictim(addr, pin)
	if ln.Valid {
		evictedTag, evictedMeta, evicted = ln.Tag, ln.Meta, true
	} else {
		a.occupied++
	}
	var zero T
	ln.Valid = true
	ln.Tag = addr
	ln.Meta = zero
	s := a.SetIndex(addr)
	for w := 0; w < a.cfg.Assoc; w++ {
		if a.line(s, w) == ln {
			a.repl.Touch(s, w)
			break
		}
	}
	return ln, evictedTag, evictedMeta, evicted
}

// Ways returns the lines of addr's set (all ways, valid or not). The
// slice aliases the array; callers may mutate metadata in place.
func (a *Array[T]) Ways(addr LineAddr) []Line[T] {
	s := a.SetIndex(addr)
	return a.lines[s*a.cfg.Assoc : (s+1)*a.cfg.Assoc]
}

// Invalidate removes addr if present, returning its metadata.
func (a *Array[T]) Invalidate(addr LineAddr) (meta T, ok bool) {
	ln := a.Peek(addr)
	if ln == nil {
		return meta, false
	}
	meta = ln.Meta
	ln.Valid = false
	var zero T
	ln.Meta = zero
	a.occupied--
	return meta, true
}

// Clear invalidates every line (bulk invalidation at GPU acquire points).
func (a *Array[T]) Clear() {
	var zero T
	for i := range a.lines {
		a.lines[i].Valid = false
		a.lines[i].Meta = zero
	}
	a.occupied = 0
}

// ForEach visits every valid line. Mutating line metadata is allowed;
// do not invalidate lines from inside the callback.
func (a *Array[T]) ForEach(fn func(addr LineAddr, meta *T)) {
	for i := range a.lines {
		if a.lines[i].Valid {
			fn(a.lines[i].Tag, &a.lines[i].Meta)
		}
	}
}

// treePLRU implements tree pseudo-LRU per set; associativity is rounded
// up to a power of two internally.
type treePLRU struct {
	assoc int
	nodes int
	bits  []uint64 // one word of tree bits per set (supports assoc<=64)
}

// NewTreePLRU returns the paper's default replacement policy.
func NewTreePLRU(sets, assoc int) Policy {
	if assoc > 64 {
		panic("cachearray: tree-PLRU supports at most 64 ways")
	}
	pow := 1 << uint(bits.Len(uint(assoc-1)))
	if assoc == 1 {
		pow = 1
	}
	return &treePLRU{assoc: pow, nodes: pow - 1, bits: make([]uint64, sets)}
}

func (p *treePLRU) Touch(s, w int) {
	if p.nodes == 0 {
		return
	}
	// Walk from root to leaf w, pointing each node away from w.
	node := 0
	lo, hi := 0, p.assoc
	word := p.bits[s]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			word |= 1 << uint(node) // 1 = next victim on the right
			node = 2*node + 1
			hi = mid
		} else {
			word &^= 1 << uint(node) // 0 = next victim on the left
			node = 2*node + 2
			lo = mid
		}
	}
	p.bits[s] = word
}

func (p *treePLRU) Victim(s int, candidates uint64) int {
	if p.nodes == 0 {
		return 0
	}
	// Follow the tree; if the pointed-to subtree holds no candidate,
	// take the other side.
	var walk func(node, lo, hi int) int
	word := p.bits[s]
	subtreeHas := func(lo, hi int) bool {
		for w := lo; w < hi; w++ {
			if candidates&(1<<uint(w)) != 0 {
				return true
			}
		}
		return false
	}
	walk = func(node, lo, hi int) int {
		if hi-lo == 1 {
			return lo
		}
		mid := (lo + hi) / 2
		right := word&(1<<uint(node)) != 0
		if right && subtreeHas(mid, hi) {
			return walk(2*node+2, mid, hi)
		}
		if !right && subtreeHas(lo, mid) {
			return walk(2*node+1, lo, mid)
		}
		// Pointed side empty of candidates; take the other.
		if subtreeHas(mid, hi) {
			return walk(2*node+2, mid, hi)
		}
		return walk(2*node+1, lo, mid)
	}
	return walk(0, 0, p.assoc)
}
