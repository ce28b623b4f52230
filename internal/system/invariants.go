package system

import (
	"cmp"
	"fmt"
	"slices"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
)

// CheckCoherence validates protocol invariants at quiescence (no
// transactions in flight):
//
//  1. Single-writer: at most one L2 holds a line Modified or Exclusive,
//     and then no other L2 holds it at all.
//  2. Single-owner: at most one L2 holds a line Owned.
//  3. Tracking inclusion: every line cached in an L2 has a directory
//     entry (tracking modes only).
//  4. Tracking precision: a dirty line (M/E/O) is tracked in state O
//     with the correct owner; an S-state entry has no M/E/O holder.
//
// TCC residency is intentionally not checked: VIPER clean evictions are
// silent, so TCC sharer information is conservative by design.
func (s *System) CheckCoherence() error {
	for _, bank := range s.DirBanks {
		if !bank.Idle() {
			return fmt.Errorf("coherence check requires quiescence")
		}
	}
	// held has one record per line an L2 holds. Sorted by line, then
	// pair, a line's holders are one run of it in pair order, and the
	// sweep reports the first violation deterministically. It is sized
	// for full L2s, which most runs end with, so it is allocated once.
	type holding struct {
		line cachearray.LineAddr
		pair int32
		st   corepair.MOESI
	}
	l2Lines := s.Cfg.CorePair.L2SizeBytes / cachearray.LineBytes
	held := make([]holding, 0, len(s.CorePairs)*l2Lines)
	for p, cp := range s.CorePairs {
		cp.ForEachL2Line(func(line cachearray.LineAddr, st corepair.MOESI) {
			held = append(held, holding{line, int32(p), st})
		})
	}
	slices.SortFunc(held, func(a, b holding) int {
		return cmp.Or(cmp.Compare(a.line, b.line), cmp.Compare(a.pair, b.pair))
	})
	tracking := s.Cfg.Protocol.Tracking != core.TrackNone
	for i := 0; i < len(held); {
		// h counts the pairs holding the line, in any state, M or E,
		// and O, and names the first pair of the latter two.
		var h struct {
			n, nME, nOwned int32
			me, owned      int32
		}
		line := held[i].line
		for ; i < len(held) && held[i].line == line; i++ {
			h.n++
			switch held[i].st {
			case corepair.Modified, corepair.Exclusive:
				if h.nME == 0 {
					h.me = held[i].pair
				}
				h.nME++
			case corepair.Owned:
				if h.nOwned == 0 {
					h.owned = held[i].pair
				}
				h.nOwned++
			}
		}
		if h.nME > 1 {
			return fmt.Errorf("line %#x: %d M/E holders", uint64(line), h.nME)
		}
		if h.nME == 1 && h.n > 1 {
			return fmt.Errorf("line %#x: M/E in pair %d with %d total holders",
				uint64(line), h.me, h.n)
		}
		if h.nOwned > 1 {
			return fmt.Errorf("line %#x: %d Owned holders", uint64(line), h.nOwned)
		}
		if !tracking {
			continue
		}
		if s.Cfg.Protocol.ReadOnlyElision && s.lineIsReadOnly(line) {
			// Read-only lines are intentionally untracked (§IX); they
			// can only ever be Shared, which rule 1 already checked.
			continue
		}
		state, owner, _ := s.BankFor(line).EntryState(line)
		if state == "I" {
			return fmt.Errorf("line %#x: cached in L2s %v but untracked (inclusion violated)",
				uint64(line), s.l2Holders(line))
		}
		dirtyHolder := -1
		if h.nME == 1 {
			dirtyHolder = int(h.me)
		} else if h.nOwned == 1 {
			dirtyHolder = int(h.owned)
		}
		if dirtyHolder >= 0 {
			if state != "O" {
				return fmt.Errorf("line %#x: dirty in pair %d but directory state %s",
					uint64(line), dirtyHolder, state)
			}
			if owner != dirtyHolder {
				return fmt.Errorf("line %#x: owner tracked as %d, actual %d",
					uint64(line), owner, dirtyHolder)
			}
		} else if state == "S" {
			// fine: clean sharers under an S entry
		}
	}
	return nil
}

// l2Holders lists the pairs whose L2 holds line, in pair order.
func (s *System) l2Holders(line cachearray.LineAddr) []int {
	var out []int
	for p, cp := range s.CorePairs {
		if cp.L2State(line) != corepair.Invalid {
			out = append(out, p)
		}
	}
	return out
}

func (s *System) lineIsReadOnly(line cachearray.LineAddr) bool {
	for _, r := range s.roRanges {
		if r.Contains(line) {
			return true
		}
	}
	return false
}
