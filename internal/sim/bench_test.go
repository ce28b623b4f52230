package sim

import (
	"testing"
)

// benchDelays is the latency mix the full simulator schedules with: L1
// hits (1), L2/NoC hops (4), GPU TCP/TCC accesses (13, 25) and memory
// accesses (in the hundreds). The calendar queue's bucket window is
// sized to exactly this distribution; the benchmark keeps the queue
// populated with a few hundred in-flight events, like a busy run.
var benchDelays = [8]Tick{1, 1, 4, 4, 13, 25, 100, 200}

// benchChains is how many concurrent event chains the benchmark keeps
// in flight (≈ queue depth of a full-system run: cores + CUs + NoC +
// directory transactions).
const benchChains = 256

// benchChain is one of the benchmark's event chains: each firing
// re-posts the chain after the next delay in the mix until b.N events
// have been scheduled.
type benchChain struct {
	e        *Engine
	c, n     int
	executed *int
}

func (ch *benchChain) OnEvent(kind uint8, arg uint64, obj any) {
	*ch.executed++
	if *ch.executed+benchChains <= ch.n {
		ch.e.Post(benchDelays[(*ch.executed+ch.c)&7], ch, kind, arg, obj)
	}
}

// BenchmarkEventsPerSec measures raw scheduler throughput: b.N events
// posted and executed through Post, the engine's one event form.
// events/s is the headline number ROADMAP tracks.
func BenchmarkEventsPerSec(b *testing.B) {
	e := NewEngine()
	executed := 0
	chains := make([]benchChain, benchChains)
	for c := range chains {
		chains[c] = benchChain{e: e, c: c, n: b.N, executed: &executed}
	}
	b.ResetTimer()
	for c := 0; c < benchChains && c < b.N; c++ {
		e.Post(benchDelays[c&7], &chains[c], 0, 0, nil)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "events/s")
}
