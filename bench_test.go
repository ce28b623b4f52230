// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark runs the corresponding workload ×
// protocol sweep and reports the paper's metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every figure's headline number. cmd/hscfig prints the
// full per-benchmark tables.
//
// Every figure cell is requested through the shared job engine as an
// EvalJobSpec — the same cache key the sweep drivers use — so repeated
// cells within one `-bench=.` run (each figure re-runs the baseline)
// are simulated once, and a persistent cache directory named in
// HSCSIM_BENCH_CACHE makes later runs start warm.
package hscsim_test

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"hscsim"
	"hscsim/internal/protocheck"
	"hscsim/internal/system"
)

var (
	benchEngineOnce sync.Once
	benchEngine     *hscsim.JobEngine
	benchEngineErr  error
)

// sharedEngine lazily starts the process-wide job engine the figure
// benchmarks submit their cells to.
func sharedEngine(b *testing.B) *hscsim.JobEngine {
	b.Helper()
	benchEngineOnce.Do(func() {
		cache, err := hscsim.NewJobCache(0, os.Getenv("HSCSIM_BENCH_CACHE"))
		if err != nil {
			benchEngineErr = err
			return
		}
		benchEngine = hscsim.NewJobEngine(hscsim.JobEngineConfig{Cache: cache})
	})
	if benchEngineErr != nil {
		b.Fatal(benchEngineErr)
	}
	return benchEngine
}

func evalRun(b *testing.B, bench string, opts hscsim.ProtocolOptions) hscsim.Results {
	b.Helper()
	out, err := sharedEngine(b).Run(context.Background(), hscsim.EvalJobSpec(bench, opts))
	if err != nil {
		b.Fatal(err)
	}
	res, err := hscsim.DecodeJobResult(out)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// prefetch submits every cell of a sweep up front so the engine's
// worker pool simulates them concurrently; the figure loop then
// collects results in order.
func prefetch(b *testing.B, benches []string, variants ...hscsim.ProtocolOptions) {
	b.Helper()
	e := sharedEngine(b)
	for _, bench := range benches {
		for _, o := range variants {
			if _, err := e.Submit(hscsim.EvalJobSpec(bench, o)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4 measures the %-saved-cycles of each §III optimization
// over the baseline across the full CHAI suite (paper avg ≈ 1.68%).
func BenchmarkFig4(b *testing.B) {
	variants := map[string]hscsim.ProtocolOptions{
		"earlyResp":    {EarlyDirtyResponse: true},
		"noWBcleanVic": {NoWBCleanVicToMem: true},
		"llcWB":        {LLCWriteBack: true},
	}
	for name, opts := range variants {
		opts := opts
		b.Run(name, func(b *testing.B) {
			prefetch(b, hscsim.Benchmarks(), hscsim.ProtocolOptions{}, opts)
			for i := 0; i < b.N; i++ {
				var sumSaved float64
				for _, bench := range hscsim.Benchmarks() {
					base := evalRun(b, bench, hscsim.ProtocolOptions{})
					opt := evalRun(b, bench, opts)
					sumSaved += 100 * (float64(base.Cycles) - float64(opt.Cycles)) / float64(base.Cycles)
				}
				b.ReportMetric(sumSaved/float64(len(hscsim.Benchmarks())), "%saved-cycles-avg")
			}
		})
	}
}

// BenchmarkFig5 measures directory↔memory accesses under the write-back
// LLC stack (paper: 50.38% average reduction).
func BenchmarkFig5(b *testing.B) {
	prefetch(b, hscsim.Benchmarks(), hscsim.ProtocolOptions{},
		hscsim.ProtocolOptions{LLCWriteBack: true, UseL3OnWT: true})
	for i := 0; i < b.N; i++ {
		var sumRed float64
		for _, bench := range hscsim.Benchmarks() {
			base := evalRun(b, bench, hscsim.ProtocolOptions{})
			wb := evalRun(b, bench, hscsim.ProtocolOptions{LLCWriteBack: true, UseL3OnWT: true})
			sumRed += 100 * (float64(base.MemAccesses()) - float64(wb.MemAccesses())) / float64(base.MemAccesses())
		}
		b.ReportMetric(sumRed/float64(len(hscsim.Benchmarks())), "%mem-reduction-avg")
	}
}

// BenchmarkFig6 measures the state-tracking speedup over the
// collaborative five (paper: 14.4% average).
func BenchmarkFig6(b *testing.B) {
	variants := map[string]hscsim.ProtocolOptions{
		"owner":   {Tracking: hscsim.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		"sharers": {Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	for name, opts := range variants {
		opts := opts
		b.Run(name, func(b *testing.B) {
			prefetch(b, hscsim.CollaborativeBenchmarks(), hscsim.ProtocolOptions{}, opts)
			for i := 0; i < b.N; i++ {
				var sumSaved float64
				for _, bench := range hscsim.CollaborativeBenchmarks() {
					base := evalRun(b, bench, hscsim.ProtocolOptions{})
					opt := evalRun(b, bench, opts)
					sumSaved += 100 * (float64(base.Cycles) - float64(opt.Cycles)) / float64(base.Cycles)
				}
				b.ReportMetric(sumSaved/float64(len(hscsim.CollaborativeBenchmarks())), "%saved-cycles-avg")
			}
		})
	}
}

// BenchmarkFig7 measures the probe reduction of state tracking
// (paper: 80.3% average for owner tracking).
func BenchmarkFig7(b *testing.B) {
	variants := map[string]hscsim.ProtocolOptions{
		"owner":   {Tracking: hscsim.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		"sharers": {Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	for name, opts := range variants {
		opts := opts
		b.Run(name, func(b *testing.B) {
			prefetch(b, hscsim.CollaborativeBenchmarks(), hscsim.ProtocolOptions{}, opts)
			for i := 0; i < b.N; i++ {
				var sumRed float64
				for _, bench := range hscsim.CollaborativeBenchmarks() {
					base := evalRun(b, bench, hscsim.ProtocolOptions{})
					opt := evalRun(b, bench, opts)
					sumRed += 100 * (float64(base.ProbesSent) - float64(opt.ProbesSent)) / float64(base.ProbesSent)
				}
				b.ReportMetric(sumRed/float64(len(hscsim.CollaborativeBenchmarks())), "%probe-reduction-avg")
			}
		})
	}
}

// BenchmarkTable2FullSize runs a workload on the unscaled Table II
// configuration, demonstrating the full-size cache hierarchy.
func BenchmarkTable2FullSize(b *testing.B) {
	cfg := hscsim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		res, err := hscsim.RunBenchmark("tq", cfg, hscsim.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

// BenchmarkTable3Ablations covers the secondary design points: §III-B1,
// limited pointers and the §VII replacement policy.
func BenchmarkTable3Ablations(b *testing.B) {
	ablations := map[string]hscsim.ProtocolOptions{
		"noWBcleanVicLLC": {NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
		"limited4ptr":     {Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, LimitedPointers: 4},
		"fewestSharers":   {Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, DirRepl: hscsim.DirReplFewestSharers},
	}
	for name, opts := range ablations {
		opts := opts
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := evalRun(b, "tq", opts)
				b.ReportMetric(float64(res.Cycles), "sim-cycles")
				b.ReportMetric(float64(res.ProbesSent), "probes")
			}
		})
	}
}

// BenchmarkEngineColdVsWarm measures what the result cache buys: the
// same Fig. 6 sweep slice run cold (every cell simulated) and warm
// (every cell a cache hit). The warm/cold ratio is the speedup a
// repeated sweep sees; warm iterations are typically 3–5 orders of
// magnitude faster.
func BenchmarkEngineColdVsWarm(b *testing.B) {
	specs := func() []hscsim.JobSpec {
		var out []hscsim.JobSpec
		for _, bench := range hscsim.CollaborativeBenchmarks() {
			out = append(out,
				hscsim.EvalJobSpec(bench, hscsim.ProtocolOptions{}),
				hscsim.EvalJobSpec(bench, hscsim.ProtocolOptions{
					Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}))
		}
		return out
	}()
	ctx := context.Background()
	runAll := func(b *testing.B, e *hscsim.JobEngine) {
		b.Helper()
		for _, sp := range specs {
			if _, err := e.Submit(sp); err != nil {
				b.Fatal(err)
			}
		}
		for _, sp := range specs {
			if _, err := e.Run(ctx, sp); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache, err := hscsim.NewJobCache(0, "")
			if err != nil {
				b.Fatal(err)
			}
			e := hscsim.NewJobEngine(hscsim.JobEngineConfig{Cache: cache})
			runAll(b, e)
			e.Close()
		}
		b.ReportMetric(float64(len(specs)), "sims/op")
	})

	b.Run("warm", func(b *testing.B) {
		cache, err := hscsim.NewJobCache(0, "")
		if err != nil {
			b.Fatal(err)
		}
		warm := hscsim.NewJobEngine(hscsim.JobEngineConfig{Cache: cache})
		runAll(b, warm) // populate
		warm.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh engine per iteration: every hit is a real cache
			// lookup, not a dedup against a completed job.
			e := hscsim.NewJobEngine(hscsim.JobEngineConfig{Cache: cache})
			runAll(b, e)
			e.Close()
		}
		b.ReportMetric(float64(len(specs)), "cache-hits/op")
	})
}

// BenchmarkReachStatesPerSec measures the protocol prover's
// exploration throughput: a full frontier-parallel, symmetry-reduced
// exploration of the stateless configuration (≈0.73M canonical
// states), reporting distinct states discovered per wall-clock second.
func BenchmarkReachStatesPerSec(b *testing.B) {
	cfg := protocheck.ModelConfig{Mode: protocheck.ModeStateless}
	for i := 0; i < b.N; i++ {
		r, err := protocheck.Explore(cfg, protocheck.ExploreOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Violation != nil {
			b.Fatalf("unexpected violation: %v", r.Violation)
		}
		b.ReportMetric(float64(r.States)/r.Elapsed.Seconds(), "states/s")
	}
}

// BenchmarkSimulatorThroughput is a plain performance benchmark of the
// simulator itself: simulated events per wall-clock second through the
// full system model (calendar-queue engine + value-typed messages; the
// microbenchmark for the bare engine is sim.BenchmarkEventsPerSec).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := hscsim.NewSystem(hscsim.EvalConfig(hscsim.ProtocolOptions{}))
		w, err := hscsim.NewBenchmark("hsti", hscsim.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(w); err != nil {
			b.Fatal(err)
		}
		events += s.Engine.Executed()
		b.ReportMetric(float64(s.Engine.Executed()), "events/run")
	}
	b.ReportMetric(float64(events)/time.Since(start).Seconds(), "events/s")
}

// BenchmarkKeptSystemThroughput is BenchmarkSimulatorThroughput on one
// kept system, the way an engine worker runs a sequence of jobs: each
// run resets the system its runner kept from the last one instead of
// building it, and checks the final state's coherence. The benchgate
// baseline gates its allocations, which are the workload's and the
// run's own.
func BenchmarkKeptSystemThroughput(b *testing.B) {
	cfg := hscsim.EvalConfig(hscsim.ProtocolOptions{})
	var r system.Runner
	defer r.Close()
	run := func() {
		w, err := hscsim.NewBenchmark("hsti", hscsim.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	run() // build the system outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
