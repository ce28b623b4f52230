package system

import (
	"cmp"
	"fmt"
	"slices"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/verify"
)

// CheckCoherence checks the coherence invariants (verify.CheckLine) of
// every line an L2 holds, at quiescence (no transactions in flight),
// and reports the first line that breaks one.
func (s *System) CheckCoherence() error {
	for _, bank := range s.DirBanks {
		if !bank.Idle() {
			return fmt.Errorf("coherence check requires quiescence")
		}
	}
	// held has one record per line an L2 holds. Sorted by line, then
	// pair, a line's holders are one run of it in pair order, and the
	// sweep reports the first violation deterministically. It is sized
	// for full L2s, which most runs end with, and kept on the system, so
	// a kept system allocates it once.
	l2Lines := s.Cfg.CorePair.L2SizeBytes / cachearray.LineBytes
	held := slices.Grow(s.held[:0], len(s.CorePairs)*l2Lines)
	for p, cp := range s.CorePairs {
		cp.ForEachL2Line(func(line cachearray.LineAddr, st corepair.MOESI) {
			held = append(held, holding{line, int32(p), st})
		})
	}
	s.held = held
	slices.SortFunc(held, func(a, b holding) int {
		return cmp.Or(cmp.Compare(a.line, b.line), cmp.Compare(a.pair, b.pair))
	})
	var buf [core.MaxTrackedTargets]verify.L2Copy // one per pair, with no heap allocation up to 64 pairs
	v := verify.LineView{L2: slices.Grow(buf[:0], len(s.CorePairs))[:len(s.CorePairs)]}
	for i := 0; i < len(held); {
		line := held[i].line
		clear(v.L2)
		for ; i < len(held) && held[i].line == line; i++ {
			h := held[i]
			wb, _ := s.CorePairs[h.pair].WBState(line)
			v.L2[h.pair] = verify.L2Copy{State: h.st, Victim: wb}
		}
		v.ReadDirectory(s.BankFor(line), line, s.Cfg.Protocol, s.lineIsReadOnly)
		if breaches := verify.CheckLine(nil, &v); len(breaches) > 0 {
			return fmt.Errorf("line %#x: %s", uint64(line), breaches[0])
		}
	}
	return nil
}

// holding is one line an L2 holds, in CheckCoherence's list.
type holding struct {
	line cachearray.LineAddr
	pair int32
	st   corepair.MOESI
}

func (s *System) lineIsReadOnly(line cachearray.LineAddr) bool {
	for _, r := range s.roRanges {
		if r.Contains(line) {
			return true
		}
	}
	return false
}
