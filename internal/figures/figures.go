// Package figures renders every table and figure of the paper's
// evaluation (§VI): Fig. 4 (speedup of the §III optimizations), Fig. 5
// (directory↔memory traffic), Fig. 6 (speedup of state tracking),
// Fig. 7 (probe reduction), the configuration Tables II/III, the §V
// HeteroSync comparison, the extended CHAI suite and the ablations.
//
// It simulates nothing. Every number is read through a Get, one
// engine.Spec per cell, beside the row that prints it; cmd/hscfig
// serves those cells from one batch of engine jobs.
package figures

import (
	"fmt"
	"io"
	"strings"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/energy"
	"hscsim/internal/engine"
	"hscsim/internal/heterosync"
	"hscsim/internal/system"
)

// Get returns the simulated results of one cell.
type Get func(engine.Spec) system.Results

// Sweep holds results keyed by benchmark then configuration name.
type Sweep struct {
	Benches []string
	Results map[string]map[string]system.Results
}

// EvalSweep reads every benchmark × protocol variant cell of the
// evaluation configuration (engine.EvalSpec) through get.
func EvalSweep(get Get, benches []string, variants []core.Options) *Sweep {
	sw := &Sweep{
		Benches: benches,
		Results: make(map[string]map[string]system.Results),
	}
	for _, b := range benches {
		sw.Results[b] = make(map[string]system.Results)
		for _, v := range variants {
			sw.Results[b][v.Named()] = get(engine.EvalSpec(b, v))
		}
	}
	return sw
}

// Fig6Variants are baseline plus the two tracking organizations
// (tracking implies the write-back LLC it builds on, §IV).
func Fig6Variants() []core.Options {
	return []core.Options{
		{},
		{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
}

// PercentSaved returns the % of simulated cycles saved vs the baseline
// (the metric of Figs. 4 and 6).
func PercentSaved(base, opt system.Results) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Cycles) - float64(opt.Cycles)) / float64(base.Cycles)
}

// PercentProbeReduction returns the % reduction in probes sent from the
// directory (the metric of Fig. 7).
func PercentProbeReduction(base, opt system.Results) float64 {
	if base.ProbesSent == 0 {
		return 0
	}
	return 100 * (float64(base.ProbesSent) - float64(opt.ProbesSent)) / float64(base.ProbesSent)
}

// PercentMemReduction returns the % reduction in directory↔memory
// accesses (the headline of Fig. 5).
func PercentMemReduction(base, opt system.Results) float64 {
	if base.MemAccesses() == 0 {
		return 0
	}
	return 100 * (float64(base.MemAccesses()) - float64(opt.MemAccesses())) / float64(base.MemAccesses())
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// WriteFig4 regenerates Fig. 4: % saved simulated cycles of each §III
// optimization over the baseline, per benchmark plus geomean-style avg.
func WriteFig4(w io.Writer, sw *Sweep) {
	header(w, "Fig. 4 — Performance increment of the 3 optimizations (% saved cycles vs baseline)")
	fmt.Fprintf(w, "%-8s %12s %14s %10s\n", "bench", "earlyResp", "noWBcleanVic", "llcWB")
	sums := make(map[string]float64)
	for _, b := range sw.Benches {
		base := sw.Results[b]["baseline"]
		vals := make(map[string]float64)
		for _, c := range []string{"earlyResp", "noWBcleanVic", "llcWB"} {
			vals[c] = PercentSaved(base, sw.Results[b][c])
			sums[c] += vals[c]
		}
		fmt.Fprintf(w, "%-8s %11.2f%% %13.2f%% %9.2f%%\n",
			b, vals["earlyResp"], vals["noWBcleanVic"], vals["llcWB"])
	}
	n := float64(len(sw.Benches))
	fmt.Fprintf(w, "%-8s %11.2f%% %13.2f%% %9.2f%%\n", "avg",
		sums["earlyResp"]/n, sums["noWBcleanVic"]/n, sums["llcWB"]/n)
	fmt.Fprintln(w, "(paper: small single-digit improvements, 1.68% average without state tracking)")
}

// WriteFig5 regenerates Fig. 5: directory↔memory reads+writes per
// configuration, per benchmark, with % reduction for the best variant.
func WriteFig5(w io.Writer, sw *Sweep) {
	header(w, "Fig. 5 — Directory↔memory accesses (reads+writes)")
	fmt.Fprintf(w, "%-8s %10s %14s %10s %17s %8s\n",
		"bench", "baseline", "noWBcleanVic", "llcWB", "llcWB+useL3OnWT", "reduced")
	var sum float64
	for _, b := range sw.Benches {
		base := sw.Results[b]["baseline"]
		best := sw.Results[b]["llcWB+useL3OnWT"]
		red := PercentMemReduction(base, best)
		sum += red
		fmt.Fprintf(w, "%-8s %10d %14d %10d %17d %7.1f%%\n", b,
			base.MemAccesses(),
			sw.Results[b]["noWBcleanVic"].MemAccesses(),
			sw.Results[b]["llcWB"].MemAccesses(),
			best.MemAccesses(), red)
	}
	fmt.Fprintf(w, "%-8s %62.1f%%\n", "avg", sum/float64(len(sw.Benches)))
	fmt.Fprintln(w, "(paper: 50.38% average reduction in memory accesses)")
}

// WriteFig6 regenerates Fig. 6: % saved cycles of owner tracking and
// owner+sharers tracking over baseline, on the collaborative five.
func WriteFig6(w io.Writer, sw *Sweep) {
	header(w, "Fig. 6 — Performance increment of state tracking (% saved cycles vs baseline)")
	fmt.Fprintf(w, "%-8s %14s %16s\n", "bench", "ownerTracking", "sharersTracking")
	var so, ss float64
	for _, b := range sw.Benches {
		base := sw.Results[b]["baseline"]
		o := PercentSaved(base, sw.Results[b]["ownerTracking"])
		s := PercentSaved(base, sw.Results[b]["sharersTracking"])
		so += o
		ss += s
		fmt.Fprintf(w, "%-8s %13.2f%% %15.2f%%\n", b, o, s)
	}
	n := float64(len(sw.Benches))
	fmt.Fprintf(w, "%-8s %13.2f%% %15.2f%%\n", "avg", so/n, ss/n)
	fmt.Fprintln(w, "(paper: 14.4% average improvement over the five benchmarks)")
}

// WriteFig7 regenerates Fig. 7: % reduction in probes sent out of the
// directory under state tracking.
func WriteFig7(w io.Writer, sw *Sweep) {
	header(w, "Fig. 7 — Network traffic (% reduction in probes sent from the directory)")
	fmt.Fprintf(w, "%-8s %10s %14s %16s\n", "bench", "baseline", "ownerTracking", "sharersTracking")
	var so, ss float64
	for _, b := range sw.Benches {
		base := sw.Results[b]["baseline"]
		o := PercentProbeReduction(base, sw.Results[b]["ownerTracking"])
		s := PercentProbeReduction(base, sw.Results[b]["sharersTracking"])
		so += o
		ss += s
		fmt.Fprintf(w, "%-8s %10d %13.1f%% %15.1f%%\n", b, base.ProbesSent, o, s)
	}
	n := float64(len(sw.Benches))
	fmt.Fprintf(w, "%-8s %24.1f%% %15.1f%%\n", "avg", so/n, ss/n)
	fmt.Fprintln(w, "(paper: 80.3% average probe reduction over the five benchmarks)")
}

// WriteTable2 prints the cache configuration (Table II) actually
// instantiated, both full-size defaults and the evaluation scaling.
func WriteTable2(w io.Writer) {
	header(w, "Table II — Cache configurations")
	full := system.Default()
	eval := engine.EvalConfig(core.Options{})
	row := func(name string, fullSz, evalSz, assoc, lat int) {
		fmt.Fprintf(w, "%-12s %10s %12s %6d-way %6d cy\n",
			name, sizeStr(fullSz), sizeStr(evalSz), assoc, lat)
	}
	fmt.Fprintf(w, "%-12s %10s %12s %10s %9s\n", "cache", "Table II", "eval-scaled", "assoc", "latency")
	row("Directory", full.Geometry.DirEntries, eval.Geometry.DirEntries, full.Geometry.DirAssoc, int(full.Timing.DirLatency))
	row("LLC", full.Geometry.LLCSizeBytes, eval.Geometry.LLCSizeBytes, full.Geometry.LLCAssoc, int(full.Timing.LLCLatency))
	row("L2", full.CorePair.L2SizeBytes, eval.CorePair.L2SizeBytes, full.CorePair.L2Assoc, int(full.CorePair.L2Latency))
	row("L1D", full.CorePair.L1DSizeBytes, eval.CorePair.L1DSizeBytes, full.CorePair.L1DAssoc, int(full.CorePair.L1Latency))
	row("L1I", full.CorePair.L1ISizeBytes, eval.CorePair.L1ISizeBytes, full.CorePair.L1IAssoc, int(full.CorePair.L1Latency))
	row("TCC", full.GPU.TCCSizeBytes, eval.GPU.TCCSizeBytes, full.GPU.TCCAssoc, int(full.GPU.TCCLatency))
	row("TCP", full.GPU.TCPSizeBytes, eval.GPU.TCPSizeBytes, full.GPU.TCPAssoc, int(full.GPU.TCPLatency))
	row("SQC", full.GPU.SQCSizeBytes, eval.GPU.SQCSizeBytes, full.GPU.SQCAssoc, int(full.GPU.SQCLatency))
	fmt.Fprintln(w, "Block size 64 B; replacement tree-PLRU; directory entries are counts, not bytes.")
}

// WriteTable3 prints the system configuration (Table III).
func WriteTable3(w io.Writer) {
	header(w, "Table III — System configuration")
	cfg := system.Default()
	fmt.Fprintf(w, "#CUs / waves resident per CU : %d / %d workgroups\n", cfg.GPUDisp.NumCUs, cfg.GPUDisp.MaxWGPerCU)
	fmt.Fprintf(w, "#CorePairs / #CPUs           : %d / %d\n", cfg.NumCorePairs, cfg.NumCorePairs*corepair.Cores)
	fmt.Fprintf(w, "CPU freq                     : 3.5 GHz (1 tick = 1 CPU cycle)\n")
	fmt.Fprintf(w, "GPU freq                     : 1.1 GHz (%d/%d ticks per GPU cycle)\n",
		cfg.GPUDisp.ClockNum, cfg.GPUDisp.ClockDen)
	fmt.Fprintf(w, "Memory                       : %d cy latency, 1 access per %d cy\n",
		cfg.Mem.Latency, cfg.Mem.CyclesPerAccess)
	fmt.Fprintf(w, "Interconnect                 : crossbar, %d cy per hop\n", cfg.NoC.Latency)
}

// WriteExtended renders the four CHAI benchmarks the paper could not
// execute under gem5's O3 CPU (§V) across the main protocol variants —
// results the original evaluation could not obtain.
func WriteExtended(w io.Writer, get Get) {
	header(w, "Extended CHAI suite — the 4 benchmarks gem5 could not run (§V)")
	variants := []core.Options{
		{},
		{LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	fmt.Fprintf(w, "%-6s %-18s %12s %10s %10s\n", "bench", "variant", "cycles", "probes", "mem")
	for _, b := range chai.ExtendedNames() {
		var base system.Results
		for i, v := range variants {
			res := get(engine.EvalSpec(b, v))
			if i == 0 {
				base = res
			}
			fmt.Fprintf(w, "%-6s %-18s %12d %10d %10d", b, v.Named(), res.Cycles, res.ProbesSent, res.MemAccesses())
			if i > 0 {
				fmt.Fprintf(w, "   (%+.1f%% cycles)", -PercentSaved(base, res))
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteHeteroSync reproduces the paper's §V negative result: the
// HeteroSync microbenchmarks and Lulesh have "limited collaborative
// properties", so the enhancements buy far less than on the
// collaborative CHAI five. It prints the tracked-stack speedup for
// both suites side by side.
func WriteHeteroSync(w io.Writer, get Get) {
	header(w, "HeteroSync / Lulesh — limited collaboration, limited benefit (§V)")
	opts := core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}
	fmt.Fprintf(w, "%-10s %-10s %12s %12s %9s %14s\n",
		"suite", "bench", "base cycles", "trk cycles", "saved", "probes saved")
	run := func(suite string, names []string, writeBackTCC bool) float64 {
		var sum float64
		for _, b := range names {
			// HeteroSync relies on scoped synchronization: the TCC runs
			// write-back (the gem5 WB_L2 configuration), so its
			// device-scope atomics never reach the directory.
			cell := func(opts core.Options) system.Results {
				sp := engine.EvalSpec(b, opts)
				sp.Topology.GPUWriteBackL2 = writeBackTCC
				return get(sp)
			}
			base, trk := cell(core.Options{}), cell(opts)
			saved := PercentSaved(base, trk)
			sum += saved
			fmt.Fprintf(w, "%-10s %-10s %12d %12d %8.1f%% %13.1f%%\n",
				suite, b, base.Cycles, trk.Cycles, saved, PercentProbeReduction(base, trk))
		}
		return sum / float64(len(names))
	}
	hsAvg := run("heterosync", heterosync.Names(), true)
	chaiAvg := run("chai-5", chai.CollaborativeFive(), false)
	fmt.Fprintf(w, "average saved cycles: heterosync %.1f%% vs collaborative CHAI %.1f%%\n", hsAvg, chaiAvg)
	fmt.Fprintln(w, "(paper: 'the effects of the enhancements are not prominent due to their limited collaborative properties')")
}

// WriteEnergy renders the first-order energy estimate the paper's
// traffic figures proxy: total estimated energy per benchmark under the
// baseline and the tracked write-back stack, with the % saved.
func WriteEnergy(w io.Writer, sw *Sweep) {
	header(w, "Energy estimate — baseline vs sharersTracking (first-order, from event counts)")
	costs := energy.DefaultCosts()
	fmt.Fprintf(w, "%-8s %14s %14s %9s\n", "bench", "baseline (nJ)", "tracked (nJ)", "saved")
	var sum float64
	n := 0
	for _, b := range sw.Benches {
		base, okB := sw.Results[b]["baseline"]
		opt, okO := sw.Results[b]["sharersTracking"]
		if !okB || !okO {
			continue
		}
		eb := energy.Estimate(base.Stats, costs).Total()
		eo := energy.Estimate(opt.Stats, costs).Total()
		saved := 100 * (eb - eo) / eb
		sum += saved
		n++
		fmt.Fprintf(w, "%-8s %14.1f %14.1f %8.1f%%\n", b, eb/1000, eo/1000, saved)
	}
	if n > 0 {
		fmt.Fprintf(w, "%-8s %39.1f%%\n", "avg", sum/float64(n))
	}
	fmt.Fprintln(w, "(the paper reports the memory-access and probe reductions these derive from)")
}

func sizeStr(b int) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%d MB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%d KB", b>>10)
	}
	return fmt.Sprintf("%d", b)
}
