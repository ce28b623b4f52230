package verify

import "testing"

// BenchmarkNewHarness builds one checker harness (2 CorePairs, a TCC,
// the directory, DMA and the oracle) for the single-line contention
// scenario under owner tracking. The replay checker builds one per
// explored path prefix, so this is its per-node setup cost.
func BenchmarkNewHarness(b *testing.B) {
	opts := Variants()[4]
	sc := Scenarios()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harnessSink = newHarness(opts, sc, nil)
	}
}

var harnessSink *harness
