package verify

import "testing"

// BenchmarkHarnessReset resets a checker harness (2 CorePairs, a TCC,
// the directory, DMA and the oracle) that a replayed path left with
// messages, memory reads and transactions in flight, for the single-line
// contention scenario under owner tracking. The replay checker resets
// its one harness before every explored path prefix, so this is its
// per-node setup cost; the benchgate baseline gates its allocations.
func BenchmarkHarnessReset(b *testing.B) {
	h := newHarness(Variants()[4], Scenarios()[0], nil)
	path := func() {
		h.drain()
		for range 6 {
			if acts := h.enabled(); len(acts) > 0 {
				h.perform(acts[len(acts)-1])
			}
		}
	}
	path()
	h.reset()
	path()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		h.reset()
		b.StopTimer()
		path()
		b.StartTimer()
	}
}
