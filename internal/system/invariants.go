package system

import (
	"fmt"
	"sort"

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
	// holders counts the pairs holding a line, in any state, M or E,
	// and O, and names the first pair of the latter two. Values, not
	// records: the check allocates nothing per line.
	type holders struct {
		n, nME, nOwned int32
		me, owned      int32
	}
	lines := make(map[cachearray.LineAddr]holders)
	for p, cp := range s.CorePairs {
		cp.ForEachL2Line(func(line cachearray.LineAddr, st corepair.MOESI) {
			h := lines[line]
			h.n++
			switch st {
			case corepair.Modified, corepair.Exclusive:
				if h.nME == 0 {
					h.me = int32(p)
				}
				h.nME++
			case corepair.Owned:
				if h.nOwned == 0 {
					h.owned = int32(p)
				}
				h.nOwned++
			}
			lines[line] = h
		})
	}
	tracking := s.Cfg.Protocol.Tracking != core.TrackNone
	// Sorted sweep so the first violation reported is deterministic.
	order := make([]cachearray.LineAddr, 0, len(lines))
	for line := range lines { //hsclint:deterministic — sorted below
		order = append(order, line)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, line := range order {
		h := lines[line]
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
