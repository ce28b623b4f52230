package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hscsim"
)

// layerInputs is everything a traced run measured, before it is turned
// into per-layer metrics.
type layerInputs struct {
	cpuNs   map[string]int64 // profile CPU time by layer
	ops     float64          // operations the profile covers: cold cells, or requests
	allocs  map[string]int64 // allocation pass objects by layer
	allocOp float64          // operations the allocation pass covers
	gc      float64          // GC cycles during the profiled phase
	rp      replayStats
	serve   map[string]float64 // hscserve.* metrics (serve-mixed only)
	wall    time.Duration      // the traced phase's own wall time, for tracing overhead
}

// replayStats sums the serial replays' counters and span times.
type replayStats struct {
	cells                         float64
	counts                        map[string]float64
	newT, runT, checkT, setupT, v time.Duration
}

// traceSweep is the traced run of a sweep workload: profiled sweeps with
// spans, then a serial replay of every cell, then an allocation pass.
func traceSweep(e *env, w sweepWorkload, cells []cell) error {
	var in layerInputs
	var prof bytes.Buffer
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	passes, err := sweepLoop(e, cells, &refClock{})
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&gc1)
	if in.cpuNs, err = cpuByLayer(prof.Bytes()); err != nil {
		return err
	}
	in.ops = float64(len(cells) * len(passes))
	in.gc = float64(gc1.NumGC - gc0.NumGC)
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	in.wall = time.Duration(median(walls) * float64(time.Second))

	in.rp = replay(e, cells)

	in.allocs = allocPass(func() {
		_, eng := coldSweep(e, cells)
		eng.Close()
	})
	in.allocOp = float64(len(cells))
	return finishTrace(e, in)
}

// replay runs each cell once, serially, through NewBenchmark →
// NewSystem → System.Run → CheckCoherence, with the workload's Setup
// and Verify wrapped in spans. Its result must encode to the committed
// digest, the same bytes the engine path produced.
func replay(e *env, cells []cell) replayStats {
	rs := replayStats{counts: make(map[string]float64)}
	for _, c := range cells {
		err := replayOne(e, c, &rs)
		if err != nil {
			err = fmt.Errorf("%s: replay: %w", c.label, err)
		}
		e.tally.op(err)
	}
	return rs
}

func replayOne(e *env, c cell, rs *replayStats) error {
	cs := e.tr.begin(0, "replay "+c.label)
	defer e.tr.end(cs)
	timed := func(name string, d *time.Duration, parent int, f func()) {
		id := e.tr.begin(parent, name)
		t := time.Now()
		f()
		if d != nil {
			*d += time.Since(t)
		}
		e.tr.end(id)
	}
	var w hscsim.Workload
	var err error
	timed("NewBenchmark", nil, cs, func() { w, err = c.workload() })
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	var runSpan int
	if setup := w.Setup; setup != nil {
		w.Setup = func(fm *hscsim.Memory) { timed("Workload.Setup", &rs.setupT, runSpan, func() { setup(fm) }) }
	}
	if verify := w.Verify; verify != nil {
		w.Verify = func(fm *hscsim.Memory) (err error) {
			timed("Workload.Verify", &rs.v, runSpan, func() { err = verify(fm) })
			return err
		}
	}
	var sys *hscsim.System
	timed("NewSystem", &rs.newT, cs, func() { sys = hscsim.NewSystem(cfg) })
	runSpan = e.tr.begin(cs, "System.Run")
	t := time.Now()
	res, err := sys.Run(w)
	rs.runT += time.Since(t)
	e.tr.end(runSpan)
	if err != nil {
		return err
	}
	timed("CheckCoherence", &rs.checkT, cs, func() { err = sys.CheckCoherence() })
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := e.digests.check(c.label, b); err != nil {
		return err
	}
	rs.cells++
	addCounts(rs.counts, res, sys.Engine.Executed())
	return nil
}

// statSum sums the counter name over every scope of a family: "cp"
// covers cp0..cp3, "dir" covers dir and dir0..dirN.
func statSum(st map[string]uint64, family, name string) float64 {
	var s uint64
	for k, v := range st {
		scope, n, ok := strings.Cut(k, ".")
		if ok && n == name && strings.TrimRight(scope, "0123456789") == family {
			s += v
		}
	}
	return float64(s)
}

// addCounts adds one run's simulated counts, keyed by metric name (plus
// the numerators and denominators of the ratios).
func addCounts(c map[string]float64, res hscsim.Results, events uint64) {
	st := res.Stats
	ops := statSum(st, "core", "ops")
	waves := statSum(st, "gpudisp", "wave_ops")
	for k, v := range map[string]float64{
		"sim.events":                float64(events),
		"prog.handoffs":             ops + waves,
		"cpu.ops":                   ops,
		"cpu.store_buffer_stalls":   statSum(st, "core", "store_buffer_stalls"),
		"corepair.l2_accesses":      statSum(st, "cp", "l2_hits") + statSum(st, "cp", "l2_misses"),
		"corepair.l2_misses":        statSum(st, "cp", "l2_misses"),
		"corepair.wb_stalls":        statSum(st, "cp", "wb_stalls"),
		"gpu.wave_ops":              waves,
		"gpucache.accesses":         statSum(st, "gpu", "reads") + statSum(st, "gpu", "writes") + statSum(st, "gpu", "device_atomics") + statSum(st, "gpu", "system_atomics"),
		"gpucache.tcc_misses":       statSum(st, "gpu", "tcc_misses"),
		"gpucache.tcc_lookups":      statSum(st, "gpu", "tcc_misses") + statSum(st, "gpu", "tcc_hits"),
		"noc.messages":              statSum(st, "noc", "messages"),
		"noc.bytes":                 statSum(st, "noc", "bytes"),
		"noc.port_stall_cycles":     statSum(st, "noc", "port_stall_cycles"),
		"core.requests":             statSum(st, "dir", "requests"),
		"core.probes_sent":          statSum(st, "dir", "probes_sent"),
		"core.probe_hits":           statSum(st, "cp", "probe_hits"),
		"core.llc_reads":            statSum(st, "llc", "reads"),
		"core.llc_read_hits":        statSum(st, "llc", "read_hits"),
		"core.alloc_stalls":         statSum(st, "dir", "alloc_stalls"),
		"memctrl.accesses":          statSum(st, "mem", "reads") + statSum(st, "mem", "writes"),
		"memctrl.bank_stall_cycles": statSum(st, "mem", "bank_stall_cycles"),
		"system.sim_cycles":         float64(res.Cycles),
	} {
		c[k] += v
	}
}

// allocPass runs f with every allocation sampled and returns the
// objects it allocated, by layer.
func allocPass(f func()) map[string]int64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	// The heap profile lags by up to two GC cycles.
	runtime.GC()
	runtime.GC()
	before := allocsByLayer()
	f()
	runtime.GC()
	runtime.GC()
	after := allocsByLayer()
	for l, n := range before {
		after[l] -= n
	}
	return after
}

// finishTrace turns a traced run's measurements into the per-layer
// metrics, and writes the spans and the per-layer table under -out.
func finishTrace(e *env, in layerInputs) error {
	rp := in.rp
	perCell := func(k string) float64 {
		if rp.cells == 0 {
			return 0
		}
		return rp.counts[k] / rp.cells
	}
	ratio := func(num, den string) float64 {
		if rp.counts[den] == 0 {
			return 0
		}
		return rp.counts[num] / rp.counts[den]
	}
	selfNs := func(layer string) float64 { return float64(in.cpuNs[layer]) / in.ops }
	selfMs := func(layer string) float64 { return selfNs(layer) / 1e6 }
	nsPer := func(layer, count string) float64 {
		if c := perCell(count); c > 0 {
			return selfNs(layer) / c
		}
		return 0
	}
	allocs := func(layer string) float64 { return float64(in.allocs[layer]) / in.allocOp }
	replayMs := func(d time.Duration) float64 {
		if rp.cells == 0 {
			return 0
		}
		return ms(d) / rp.cells
	}
	spanMean := func(prefix string) time.Duration { d, _ := e.tr.mean(prefix); return d }

	for _, k := range []string{"sim.events", "prog.handoffs", "cpu.ops", "corepair.l2_accesses",
		"corepair.l2_misses", "gpu.wave_ops", "gpucache.accesses", "noc.messages", "noc.bytes",
		"core.requests", "core.probes_sent", "memctrl.accesses"} {
		e.set(k, "count", perCell(k))
	}
	// Stalls and cycles are simulated-tick waits.
	for _, k := range []string{"cpu.store_buffer_stalls", "corepair.wb_stalls", "core.alloc_stalls",
		"noc.port_stall_cycles", "memctrl.bank_stall_cycles", "system.sim_cycles"} {
		e.set(k, "ticks", perCell(k))
	}
	e.set("gpucache.tcc_miss_ratio", "ratio", ratio("gpucache.tcc_misses", "gpucache.tcc_lookups"))
	e.set("core.probe_hit_ratio", "ratio", ratio("core.probe_hits", "core.probes_sent"))
	e.set("core.llc_hit_ratio", "ratio", ratio("core.llc_read_hits", "core.llc_reads"))

	for _, l := range []string{"sim", "prog", "cpu", "corepair", "gpu", "gpucache", "noc", "core", "memctrl", "cachearray", "workload", "engine"} {
		e.set(l+".self_ms", "ms", selfMs(l))
	}
	for _, l := range []string{"prog", "cpu", "corepair", "gpu", "gpucache", "core", "engine"} {
		e.set(l+".allocs", "count", allocs(l))
	}
	e.set("sim.ns_per_event", "ns", nsPer("sim", "sim.events"))
	e.set("prog.ns_per_handoff", "ns", nsPer("prog", "prog.handoffs"))
	e.set("noc.ns_per_message", "ns", nsPer("noc", "noc.messages"))
	e.set("core.ns_per_request", "ns", nsPer("core", "core.requests"))

	e.set("workload.setup_ms", "ms", replayMs(rp.setupT))
	e.set("workload.verify_ms", "ms", replayMs(rp.v))
	e.set("system.new_ms", "ms", replayMs(rp.newT))
	e.set("system.run_ms", "ms", replayMs(rp.runT))
	e.set("system.check_ms", "ms", replayMs(rp.checkT))

	e.set("engine.hash_us", "us", float64(spanMean("JobSpec.Hash").Nanoseconds())/1e3)
	e.set("engine.decode_us", "us", float64(spanMean("DecodeJobResult").Nanoseconds())/1e3)
	e.set("engine.job_ms", "ms", ms(spanMean("Submit→wait")))

	for _, k := range []string{"hscserve.cache_hits", "hscserve.disk_hits", "hscserve.cache_misses", "hscserve.puts"} {
		e.set(k, "count", in.serve[k])
	}
	e.set("hscserve.mem_hit_ratio", "ratio", in.serve["hscserve.mem_hit_ratio"])
	e.set("hscserve.cpu_us_per_req", "us", in.serve["hscserve.cpu_us_per_req"])

	e.set("runtime.gc_cycles", "count", in.gc/in.ops)
	e.set("runtime.other_ms", "ms", selfMs(otherLayer))

	if err := os.MkdirAll(e.opt.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(e.opt.out, fmt.Sprintf("%s-seed%d", e.opt.workload, e.opt.seed))
	if err := e.tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	var table bytes.Buffer
	writeLayerTable(&table, e, in)
	os.Stderr.Write(table.Bytes())
	fmt.Fprintf(os.Stderr, "spans and table written to %s.{spans.jsonl,layers.txt}\n", base)
	return os.WriteFile(base+".layers.txt", table.Bytes(), 0o644)
}

// writeLayerTable prints every layer's share of the profile, including
// layers with no metric of their own; the rows sum to the profile total.
func writeLayerTable(w io.Writer, e *env, in layerInputs) {
	var total int64
	layers := make([]string, 0, len(in.cpuNs))
	for l, ns := range in.cpuNs {
		total += ns
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return in.cpuNs[layers[i]] > in.cpuNs[layers[j]] })
	fmt.Fprintf(w, "%s seed %d traced: %.0f ops profiled, traced wall %.3f s, profile total %.1f ms CPU\n",
		e.opt.workload, e.opt.seed, in.ops, in.wall.Seconds(), float64(total)/1e6)
	fmt.Fprintf(w, "%-16s %12s %12s %8s %14s\n", "layer", "self ms", "ms/op", "share", "allocs/op")
	var sum int64
	for _, l := range layers {
		ns := in.cpuNs[l]
		sum += ns
		fmt.Fprintf(w, "%-16s %12.1f %12.4f %7.2f%% %14.1f\n", l, float64(ns)/1e6, float64(ns)/1e6/in.ops,
			100*float64(ns)/float64(max(total, 1)), float64(in.allocs[l])/max(in.allocOp, 1))
	}
	fmt.Fprintf(w, "%-16s %12.1f  (layers + %s = profile total)\n", "total", float64(sum)/1e6, otherLayer)
}
