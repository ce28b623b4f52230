package cachearray

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refPLRU is the original tree-PLRU (a walk over explicit node ranges
// with recursive closures), kept as the oracle for the mask-based
// treePLRU.
type refPLRU struct {
	assoc int
	nodes int
	bits  []uint64
}

func newRefPLRU(sets, assoc int) *refPLRU {
	pow := 1 << uint(bits.Len(uint(assoc-1)))
	if assoc == 1 {
		pow = 1
	}
	return &refPLRU{assoc: pow, nodes: pow - 1, bits: make([]uint64, sets)}
}

func (p *refPLRU) Touch(s, w int) {
	if p.nodes == 0 {
		return
	}
	node := 0
	lo, hi := 0, p.assoc
	word := p.bits[s]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			word |= 1 << uint(node)
			node = 2*node + 1
			hi = mid
		} else {
			word &^= 1 << uint(node)
			node = 2*node + 2
			lo = mid
		}
	}
	p.bits[s] = word
}

func (p *refPLRU) Victim(s int, candidates uint64) int {
	if p.nodes == 0 {
		return 0
	}
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
		if subtreeHas(mid, hi) {
			return walk(2*node+2, mid, hi)
		}
		return walk(2*node+1, lo, mid)
	}
	return walk(0, 0, p.assoc)
}

// refWay is one way of the reference model.
type refWay struct {
	valid bool
	tag   LineAddr
}

// refArray is the original array semantics: Line records scanned in
// way order, victims chosen by refPLRU among unpinned ways.
type refArray struct {
	sets, assoc int
	ways        [][]refWay
	repl        *refPLRU
}

func newRefArray(sets, assoc int) *refArray {
	r := &refArray{sets: sets, assoc: assoc, repl: newRefPLRU(sets, assoc)}
	for s := 0; s < sets; s++ {
		r.ways = append(r.ways, make([]refWay, assoc))
	}
	return r
}

func (r *refArray) find(addr LineAddr) (s, w int) {
	s = int(addr) & (r.sets - 1)
	for w, ln := range r.ways[s] {
		if ln.valid && ln.tag == addr {
			return s, w
		}
	}
	return s, -1
}

func (r *refArray) victim(s int, pin func(LineAddr) bool) int {
	var mask uint64
	for w, ln := range r.ways[s] {
		if !ln.valid {
			return w
		}
		if !pin(ln.tag) {
			mask |= 1 << uint(w)
		}
	}
	if mask == 0 {
		mask = 1<<uint(r.assoc) - 1
	}
	return r.repl.Victim(s, mask)
}

func (r *refArray) insert(addr LineAddr, pin func(LineAddr) bool) (evTag LineAddr, evicted bool) {
	s, w := r.find(addr)
	if w < 0 {
		w = r.victim(s, pin)
		if r.ways[s][w].valid {
			evTag, evicted = r.ways[s][w].tag, true
		}
		r.ways[s][w] = refWay{valid: true, tag: addr}
	}
	r.repl.Touch(s, w)
	return evTag, evicted
}

// TestTreePLRUMatchesRecursiveOracle drives the array and the original
// implementation with the same random traffic — lookups, peeks,
// pinned inserts, victim queries and invalidations — and requires the
// same hits, the same victims and the same way contents throughout.
func TestTreePLRUMatchesRecursiveOracle(t *testing.T) {
	const sets = 4
	for _, assoc := range []int{1, 2, 3, 8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(assoc)))
		a := New[int](Config{SizeBytes: sets * assoc * 64, Assoc: assoc, BlockSize: 64})
		ref := newRefArray(sets, assoc)
		lines := 3 * sets * assoc
		pinned := make(map[LineAddr]bool)
		pinRef := func(tag LineAddr) bool { return pinned[tag] }
		pin := func(tag LineAddr, _ *int) bool { return pinned[tag] }
		for op := 0; op < 20000; op++ {
			if op%16 == 0 {
				clear(pinned)
				for i := rng.Intn(assoc + 1); i > 0; i-- {
					pinned[LineAddr(rng.Intn(lines))] = true
				}
			}
			addr := LineAddr(rng.Intn(lines))
			switch k := rng.Intn(10); {
			case k < 3:
				_, w := ref.find(addr)
				if w >= 0 {
					ref.repl.Touch(int(addr)&(sets-1), w)
				}
				if got := a.Lookup(addr) != nil; got != (w >= 0) {
					t.Fatalf("%d-way op %d: Lookup(%d) hit = %t, oracle %t", assoc, op, addr, got, w >= 0)
				}
			case k < 4:
				_, w := ref.find(addr)
				if got := a.Peek(addr) != nil; got != (w >= 0) {
					t.Fatalf("%d-way op %d: Peek(%d) hit = %t, oracle %t", assoc, op, addr, got, w >= 0)
				}
			case k < 5:
				s, w := ref.find(addr)
				if w >= 0 {
					break // FindVictim is asked only about absent lines
				}
				want := ref.ways[s][ref.victim(s, pinRef)]
				tag, _, valid := a.FindVictim(addr, pin)
				if valid != want.valid || (valid && tag != want.tag) {
					t.Fatalf("%d-way op %d: FindVictim(%d) = %d (valid %t), oracle %d (valid %t)",
						assoc, op, addr, tag, valid, want.tag, want.valid)
				}
			case k < 8:
				wantTag, wantEv := ref.insert(addr, pinRef)
				_, tag, _, ev := a.Insert(addr, pin)
				if ev != wantEv || (ev && tag != wantTag) {
					t.Fatalf("%d-way op %d: Insert(%d) evicted %d (%t), oracle %d (%t)",
						assoc, op, addr, tag, ev, wantTag, wantEv)
				}
			default:
				s, w := ref.find(addr)
				if w >= 0 {
					ref.ways[s][w] = refWay{}
				}
				if _, ok := a.Invalidate(addr); ok != (w >= 0) {
					t.Fatalf("%d-way op %d: Invalidate(%d) = %t, oracle %t", assoc, op, addr, ok, w >= 0)
				}
			}
			s := int(addr) & (sets - 1)
			for w, want := range ref.ways[s] {
				tag, _, valid := a.Way(addr, w)
				if valid != want.valid || (valid && tag != want.tag) {
					t.Fatalf("%d-way op %d: set %d way %d holds %d (valid %t), oracle %d (valid %t)",
						assoc, op, s, w, tag, valid, want.tag, want.valid)
				}
			}
		}
	}
}

// BenchmarkCacheArray times the three accesses a last-level cache
// makes, on the evaluation LLC geometry (16 MB, 16-way, 64 B lines):
// a hit, a miss, and an insert into a full set that evicts.
func BenchmarkCacheArray(b *testing.B) {
	cfg := Config{SizeBytes: 16 << 20, Assoc: 16, BlockSize: 64}
	a := New[bool](cfg)
	sets := LineAddr(cfg.Sets())
	// Fill every way of the first 64 sets.
	for w := LineAddr(0); w < 16; w++ {
		for s := LineAddr(0); s < 64; s++ {
			a.Insert(w*sets+s, nil)
		}
	}
	absent := 16 * sets // tag 16 of each set is never inserted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := LineAddr(i) & 63
		if a.Lookup(s) == nil {
			// The evicting inserts below may displace line s; put it
			// back so the hit stays a hit.
			a.Insert(s, nil)
		}
		if a.Lookup(absent+s) != nil {
			b.Fatal("lookup of an absent line hit")
		}
		if _, _, _, ev := a.Insert(LineAddr(i+32)*sets+s, nil); !ev {
			b.Fatal("insert into a full set did not evict")
		}
	}
}
