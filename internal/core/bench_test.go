package core

import (
	"testing"

	"hscsim/internal/msg"
)

// BenchmarkDirectoryRequest measures one stateless directory
// transaction end to end: an L2's RdBlk, the downgrade probe to the
// peer L2 and its ack, the LLC miss and memory read, the grant, and the
// requester's Unblock that completes the transaction.
func BenchmarkDirectoryRequest(b *testing.B) {
	r := newRig(b, Options{}, testGeo())
	r.e.MaxTicks = 0 // b.N transactions run past the rig's tick limit
	request := func() {
		r.l2a.send(msg.RdBlk, 0x100)
		r.run()
		r.l2a.resps, r.l2a.respTicks = r.l2a.resps[:0], r.l2a.respTicks[:0]
		r.l2b.probes = r.l2b.probes[:0]
	}
	// Warm the free lists, the interconnect and the event pool.
	for i := 0; i < 1024; i++ {
		request()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}
