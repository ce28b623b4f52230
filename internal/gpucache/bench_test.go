package gpucache

import (
	"testing"

	"hscsim/internal/cachearray"
)

// BenchmarkTCCReadMiss measures a warm TCC read miss end to end: the TCP
// and TCC misses, the RdBlk to the directory, its data response and the
// fills on the way back. Three lines of one 2-way TCC set (and of the
// 2-way, one-set TCP) are read round-robin, so every access misses in
// both.
func BenchmarkTCCReadMiss(b *testing.B) {
	r := newGPURig(b, tinyGPUConfig())
	r.e.MaxTicks = 0 // b.N misses run past the rig's tick limit
	lines := []cachearray.LineAddr{0x10, 0x14, 0x18}
	done := func() {}
	next := 0
	miss := func() {
		r.g.ReadLine(0, lines[next%len(lines)], done)
		next++
		r.run()
		if len(r.dir.reqs) != 1 {
			b.Fatalf("read %d sent %d requests to the directory, want one RdBlk", next, len(r.dir.reqs))
		}
		r.dir.reqs = r.dir.reqs[:0]
	}
	// Warm the event pool, the interconnect and the per-line lists.
	for i := 0; i < 1024; i++ {
		miss()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}
