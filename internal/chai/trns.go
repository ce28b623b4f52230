package chai

import (
	"fmt"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// Transpose models CHAI trns: in-place transposition of an m×n matrix
// by following the cycles of the transposition permutation. Cycle
// starting points are dispensed from a shared CPU+GPU fetch-add counter
// (system-scope atomics); a worker owns a cycle iff the dispensed index
// is the cycle's minimum, so element moves need no per-element locks.
// Sharing is migratory: lines bounce between CPU L2s and the TCC.
func Transpose(p Params) system.Workload {
	m := 64 * p.Scale
	n := 48 * p.Scale
	total := m * n

	mat := dataBase
	counter := wa(mat, total)

	// Row-major m×n → n×m: element i moves to (i*m) mod (m*n-1).
	dest := func(i int) int {
		if i == total-1 {
			return i
		}
		return (i * m) % (total - 1)
	}
	// isCycleMin walks the cycle (pure arithmetic, no memory traffic)
	// and reports whether s is its smallest element; the walk length is
	// charged as compute.
	cycleMinLen := func(s int) (bool, int) {
		length := 1
		for c := dest(s); c != s; c = dest(c) {
			if c < s {
				return false, length
			}
			length++
		}
		return true, length
	}

	setup := func(fm *memdata.Memory) {
		fillRandom(fm, mat, total, 1_000_000, p.seed(0x7245))
		fm.Write(counter, 1) // positions 0 and total-1 are fixed points
	}

	kernel := &prog.Kernel{
		Name: "trns_cycles", Workgroups: 8, WavesPerWG: 2, CodeAddr: kernelCode(6),
		Fn: func(w *prog.Wave) {
			for {
				s := int(w.AtomicSysAdd(counter, 1))
				if s >= total-1 {
					return
				}
				min, length := cycleMinLen(s)
				w.Compute(uint64(2 * length))
				if !min {
					continue
				}
				val := w.Load(wa(mat, s))
				cur := s
				for {
					nxt := dest(cur)
					tmp := w.Load(wa(mat, nxt))
					w.Store(wa(mat, nxt), val)
					val = tmp
					cur = nxt
					if cur == s {
						break
					}
				}
			}
		},
	}

	cpuWork := func(t *prog.CPUThread) {
		for {
			s := int(t.AtomicAdd(counter, 1))
			if s >= total-1 {
				return
			}
			min, length := cycleMinLen(s)
			t.Compute(uint64(2 * length))
			if !min {
				continue
			}
			val := t.Load(wa(mat, s))
			cur := s
			for {
				nxt := dest(cur)
				tmp := t.Load(wa(mat, nxt))
				t.Store(wa(mat, nxt), val)
				val = tmp
				cur = nxt
				if cur == s {
					break
				}
			}
		}
	}

	return system.Workload{
		Name:    "trns",
		Setup:   setup,
		Threads: collaborative(p.CPUThreads, kernel, cpuWork),
		Verify: func(fm *memdata.Memory) error {
			// After transposition, position dest(i) holds input
			// word i, which the transposition overwrote in place.
			input := randomWords(1_000_000, p.seed(0x7245))
			for i := 0; i < total; i++ {
				if got, want := fm.Read(wa(mat, dest(i))), input(); got != want {
					return fmt.Errorf("trns: position %d = %d, want %d", dest(i), got, want)
				}
			}
			return nil
		},
	}
}
