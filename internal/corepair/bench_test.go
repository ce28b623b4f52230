package corepair

import "testing"

// BenchmarkCorePairMiss measures an L2 load miss end to end: the RdBlk,
// the directory's grant, the fill with its Unblock, and the replay of
// the waiting access. The line is dropped from the caches between
// iterations so that every access misses.
func BenchmarkCorePairMiss(b *testing.B) {
	r := newCPRig(b, tinyConfig())
	r.e.MaxTicks = 0 // b.N misses run past the rig's tick limit
	const line = 0x10
	done := func() {}
	miss := func() {
		r.cp.Access(0, Load, line, done)
		r.run()
		r.cp.l2.Invalidate(line)
		r.cp.invalidateL1s(line)
		r.dir.reqs, r.dir.unblocks = r.dir.reqs[:0], r.dir.unblocks[:0]
	}
	// Warm the free lists, the interconnect and the event pool.
	for i := 0; i < 1024; i++ {
		miss()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}
