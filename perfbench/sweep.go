package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hscsim"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 9
	// hitBlocks × hitsPerBlock are the warm re-submissions after each
	// cold sweep: about a second of them, in blocks of a few tenths of a
	// second with the host reference run between blocks. A block visits
	// every cell the same number of times, so every block has the same
	// mix; its p99 has 48 samples beyond it.
	hitBlocks    = 3
	hitsPerBlock = 4800
	spannedHits  = 500
	// gpuSyncScale sizes the HeteroSync cells to a few seconds a sweep.
	gpuSyncScale = 48
)

// cell is one simulation job the benchmark submits and checks.
type cell struct {
	label   string // key into the digest table
	bench   string
	variant string
	spec    hscsim.JobSpec
	hs      bool // a HeteroSync workload (else CHAI)
}

// workload builds the cell's workload through the public constructors,
// for the serial replay.
func (c cell) workload() (hscsim.Workload, error) {
	if c.hs {
		return hscsim.NewHeteroSyncBenchmark(c.spec.Bench, c.spec.Scale)
	}
	return hscsim.NewBenchmark(c.spec.Bench, hscsim.Params{Scale: c.spec.Scale, CPUThreads: c.spec.Threads, Seed: c.spec.Seed})
}

// config is the system configuration the engine builds for the cell's
// spec: the evaluation configuration plus the GPU write-back L2 switch.
func (c cell) config() (hscsim.Config, error) {
	opts, err := c.spec.Protocol.Options()
	if err != nil {
		return hscsim.Config{}, err
	}
	cfg := hscsim.EvalConfig(opts)
	cfg.GPU.WriteBackL2 = c.spec.Topology.GPUWriteBackL2
	return cfg, nil
}

// smallCell is a scale-1, 4-thread CHAI job: a few tens of milliseconds.
func smallCell(label, bench, variant string, seed int64) (cell, error) {
	pv, err := hscsim.NamedProtocolVariant(variant)
	if err != nil {
		return cell{}, err
	}
	sp := hscsim.JobSpec{Bench: bench, Scale: 1, Threads: 4, Seed: seed, Protocol: pv, Config: "eval"}
	return cell{label: label, bench: bench, variant: variant, spec: sp.Normalized()}, nil
}

// sweepWorkload is a figure-style sweep run on a fresh 2-worker engine.
type sweepWorkload struct {
	name      string
	cells     func(inputSeed int64) ([]cell, error)
	warmup    func(inputSeed int64) (cell, error)
	headlines bool
}

var (
	fig45Variants = []hscsim.ProtocolOptions{
		{},
		{EarlyDirtyResponse: true},
		{NoWBCleanVicToMem: true},
		{LLCWriteBack: true},
		{LLCWriteBack: true, UseL3OnWT: true},
	}
	fig67Variants = []hscsim.ProtocolOptions{
		{Tracking: hscsim.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
)

// paperSweep is the cold regeneration of Figs. 4–7: the ten paper CHAI
// benchmarks × the five Fig. 4/5 variants, plus the collaborative five
// × owner and owner+sharers tracking (their baselines are already in
// the first group), exactly the cells hscfig runs.
var paperSweep = sweepWorkload{
	name: "paper-sweep",
	cells: func(seed int64) ([]cell, error) {
		var cs []cell
		add := func(b string, o hscsim.ProtocolOptions) {
			sp := hscsim.EvalJobSpec(b, o)
			sp.Seed = seed
			cs = append(cs, cell{
				label: fmt.Sprintf("paper-sweep/s%d/%s/%s", seed, b, o.Named()),
				bench: b, variant: o.Named(), spec: sp.Normalized(),
			})
		}
		for _, b := range hscsim.Benchmarks() {
			for _, o := range fig45Variants {
				add(b, o)
			}
		}
		for _, b := range hscsim.CollaborativeBenchmarks() {
			for _, o := range fig67Variants {
				add(b, o)
			}
		}
		return cs, nil
	},
	warmup: func(seed int64) (cell, error) {
		return smallCell(fmt.Sprintf("warmup/paper-sweep/s%d", seed), "bs", "baseline", seed)
	},
	headlines: true,
}

// gpuSync is the HeteroSync microbenchmarks × {baseline,
// sharersTracking} with the write-back TCC of the paper's §V runs.
var gpuSync = sweepWorkload{
	name: "gpu-sync",
	cells: func(seed int64) ([]cell, error) {
		var cs []cell
		for _, b := range []string{"hs_mutex", "hs_ticket", "hs_barrier", "hs_sema"} {
			for _, v := range []string{"baseline", "sharersTracking"} {
				c, err := gpuSyncCell(fmt.Sprintf("gpu-sync/%s/%s", b, v), b, v, gpuSyncScale, seed)
				if err != nil {
					return nil, err
				}
				cs = append(cs, c)
			}
		}
		return cs, nil
	},
	warmup: func(seed int64) (cell, error) {
		return gpuSyncCell("warmup/gpu-sync", "hs_barrier", "baseline", 16, seed)
	},
}

// gpuSyncCell builds a HeteroSync job. The input seed does not change a
// HeteroSync result, so its digest label leaves the seed out.
func gpuSyncCell(label, bench, variant string, scale int, seed int64) (cell, error) {
	pv, err := hscsim.NamedProtocolVariant(variant)
	if err != nil {
		return cell{}, err
	}
	sp := hscsim.JobSpec{Bench: bench, Scale: scale, Seed: seed, Protocol: pv, Config: "eval"}
	sp.Topology.GPUWriteBackL2 = true
	return cell{label: label, bench: bench, variant: variant, spec: sp.Normalized(), hs: true}, nil
}

// sweepSetup is what a sweep pays before its first cell: building and
// validating the cells, starting an engine and running one small
// warm-up job through it.
func sweepSetup(e *env, w sweepWorkload) ([]cell, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	cells, err := w.cells(e.inputSeed())
	if err != nil {
		return nil, 0, err
	}
	for _, c := range cells {
		if err := c.spec.Validate(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c.label, err)
		}
	}
	warm, err := w.warmup(e.inputSeed())
	if err != nil {
		return nil, 0, err
	}
	eng := hscsim.NewJobEngine(hscsim.JobEngineConfig{Workers: workers})
	b, err := eng.Run(context.Background(), warm.spec)
	eng.Close()
	if err == nil {
		err = e.digests.check(warm.label, b)
	}
	e.tally.op(err)
	return cells, time.Since(t0), nil
}

// pass is one cold sweep and the warm hit phase after it.
type pass struct {
	wall, cpu time.Duration
	mallocs   uint64
	lat       []time.Duration  // Submit → result checked, per completed cell
	results   [][]byte         // canonical result bytes by cell (nil if failed)
	decoded   []hscsim.Results // decoded results by cell
	hits      []hitBlock
	rssMB     float64 // peak resident set while the pass ran
	// sweepScale turns the cold sweep's times into reference-host time
	// (see hostref.go).
	sweepScale scale
}

// hitBlock is one block of warm re-submissions.
type hitBlock struct {
	lats  []time.Duration
	wall  time.Duration
	scale scale // to reference-host time
}

// coldSweep submits every cell to a fresh engine at once, as hscfig
// does, and checks each result as it completes. The caller closes the
// returned engine.
func coldSweep(e *env, cells []cell) (*pass, *hscsim.JobEngine) {
	eng := hscsim.NewJobEngine(hscsim.JobEngineConfig{Workers: workers})
	p := &pass{results: make([][]byte, len(cells)), decoded: make([]hscsim.Results, len(cells))}
	jobs := make([]*hscsim.SimJob, len(cells))
	cellSpan := make([]int, len(cells))
	waitSpan := make([]int, len(cells))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	pending := 0
	for i, c := range cells {
		cellSpan[i] = e.tr.begin(0, "cell "+c.label)
		id := e.tr.begin(cellSpan[i], "JobSpec.Hash")
		hash := c.spec.Hash()
		e.tr.end(id)
		waitSpan[i] = e.tr.begin(cellSpan[i], "Submit→wait")
		j, err := eng.Submit(c.spec)
		if err == nil && j.Hash != hash {
			err = fmt.Errorf("job hash %s, spec hash %s", j.Hash, hash)
		}
		if err != nil {
			e.tally.op(fmt.Errorf("%s: submit: %w", c.label, err))
			continue
		}
		jobs[i] = j
		pending++
	}
	// One waiter per job reports completions in the order they happen.
	done := make(chan int, pending) // one send per waiter
	for i, j := range jobs {
		if j != nil {
			go func() {
				<-j.Done()
				done <- i
			}()
		}
	}
	for range pending {
		i := <-done
		e.tr.end(waitSpan[i])
		b, err := jobs[i].Result()
		if err == nil {
			err = e.digests.check(cells[i].label, b)
		}
		if err == nil {
			id := e.tr.begin(cellSpan[i], "DecodeJobResult")
			p.decoded[i], err = hscsim.DecodeJobResult(b)
			e.tr.end(id)
		}
		e.tr.end(cellSpan[i])
		if err == nil {
			p.results[i] = b
			p.lat = append(p.lat, time.Since(t0))
		}
		e.tally.op(err)
	}
	p.wall = time.Since(t0)
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	return p, eng
}

// hitPhase re-submits cells to the warm engine from one closed-loop
// caller, the way a repeated hscfig run is served from the cache, and
// returns each request's latency (Submit → result decoded) and the
// block's wall time. Only the first spannedHits requests of a block get
// spans, which keeps a traced run's span log small.
func hitPhase(e *env, eng *hscsim.JobEngine, cells []cell, round int) ([]time.Duration, time.Duration) {
	lats := make([]time.Duration, 0, hitsPerBlock)
	order := rand.New(rand.NewSource(e.opt.seed*7919 + int64(round))).Perm(len(cells))
	runtime.GC() // start every block from the same heap state
	t0 := time.Now()
	for i := range hitsPerBlock {
		cl := cells[order[i%len(order)]]
		tr := e.tr
		if i >= spannedHits {
			tr = &tracer{}
		}
		sp := tr.begin(0, "hit "+cl.label)
		lat, err := hit(e, tr, eng, cl, sp)
		lats = append(lats, lat)
		tr.end(sp)
		e.tally.op(err)
	}
	return lats, time.Since(t0)
}

func hit(e *env, tr *tracer, eng *hscsim.JobEngine, c cell, parent int) (time.Duration, error) {
	t := time.Now()
	id := tr.begin(parent, "warm Submit→wait")
	j, err := eng.Submit(c.spec)
	var b []byte
	if err == nil {
		b, err = j.Wait(context.Background())
	}
	tr.end(id)
	if err == nil {
		id = tr.begin(parent, "DecodeJobResult")
		_, err = hscsim.DecodeJobResult(b)
		tr.end(id)
	}
	lat := time.Since(t)
	switch {
	case err != nil:
		return lat, fmt.Errorf("%s: hit: %w", c.label, err)
	case !j.Cached():
		return lat, fmt.Errorf("%s: warm re-submission was not a cache hit", c.label)
	}
	return lat, e.digests.check(c.label, b)
}

// sweepLoop repeats cold sweeps, each followed by blocks of warm hits on
// its engine, until the run's seconds are spent. The reference kernel
// runs after the sweep and after every block, outside the resident-set
// sampling.
func sweepLoop(e *env, cells []cell, clk *refClock) ([]*pass, error) {
	var passes []*pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(e.opt.seconds)*time.Second {
		var p *pass
		var eng *hscsim.JobEngine
		rss := peakRSSDuring("self", func() { p, eng = coldSweep(e, cells) })
		p.rssMB = rss
		var err error
		p.sweepScale, err = clk.next()
		for b := 0; b < hitBlocks && err == nil; b++ {
			var blk hitBlock
			p.rssMB = max(p.rssMB, peakRSSDuring("self", func() {
				blk.lats, blk.wall = hitPhase(e, eng, cells, len(passes)*hitBlocks+b)
			}))
			blk.scale, err = clk.next()
			p.hits = append(p.hits, blk)
		}
		eng.Close()
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func runSweepWorkload(e *env, w sweepWorkload) error {
	clk, err := newRefClock(!e.tr.on)
	if err != nil {
		return err
	}
	defer clk.close()
	var setups []float64
	var cells []cell
	for range setupRepeats {
		c, d, err := sweepSetup(e, w)
		if err != nil {
			return err
		}
		f, err := clk.next()
		if err != nil {
			return err
		}
		cells = c
		setups = append(setups, d.Seconds()*f.wall)
	}
	if e.tr.on {
		return traceSweep(e, w, cells)
	}

	// Every metric is the median over the run's passes (hit metrics: hit
	// blocks) of that pass's value, times in reference-host time, so a
	// burst of load from outside the benchmark moves one pass, not the
	// result.
	passes, err := sweepLoop(e, cells, clk)
	if err != nil {
		return err
	}
	var walls, raw, cpus, allocs, miss50, hit50, hit99, rates, rss []float64
	for _, p := range passes {
		rss = append(rss, p.rssMB)
		raw = append(raw, p.wall.Seconds())
		walls = append(walls, p.wall.Seconds()*p.sweepScale.wall)
		cpus = append(cpus, p.cpu.Seconds()*p.sweepScale.cpu)
		allocs = append(allocs, float64(p.mallocs)/float64(len(cells)))
		// A cold cell's latency is its completion time within the sweep.
		miss50 = append(miss50, ms(quantile(p.lat, 0.50))*p.sweepScale.wall)
		for _, b := range p.hits {
			hit50 = append(hit50, ms(quantile(b.lats, 0.50))*b.scale.cpu)
			hit99 = append(hit99, ms(quantile(b.lats, 0.99))*b.scale.cpu)
			rates = append(rates, float64(len(b.lats))/b.wall.Seconds()/b.scale.wall)
		}
	}
	e.set("setup_s", "s", median(setups))
	e.set("sweep_wall_s", "s", median(walls))
	e.set("sweep_cpu_s", "s", median(cpus))
	e.set("allocs_per_cell", "count", median(allocs))
	e.set("peak_rss_mb", "MB", median(rss))
	e.set("hit_p50_ms", "ms", median(hit50))
	e.set("hit_p99_ms", "ms", median(hit99))
	e.set("miss_p50_ms", "ms", median(miss50))
	e.set("req_per_s", "1/s", median(rates))
	fmt.Fprintf(os.Stderr, "%s: %d cells × %d cold sweeps (wall s %.3f, host-scaled %.3f), %d×%d warm hits each, input seed %d, %s\n",
		w.name, len(cells), len(passes), raw, walls, hitBlocks, hitsPerBlock, e.inputSeed(), clk)
	if w.headlines {
		printHeadlines(e, cells, passes[0])
	}
	return nil
}

// printHeadlines prints the four figure averages beside the paper's.
// No hardware reference exists: the paper's gem5 averages are the only
// reference, so the error is against another model, not silicon.
func printHeadlines(e *env, cells []cell, p *pass) {
	res := make(map[string]map[string]hscsim.Results)
	for i, c := range cells {
		if p.results[i] == nil {
			fmt.Fprintln(os.Stderr, "paper-sweep: headlines skipped, a cell failed")
			return
		}
		if res[c.bench] == nil {
			res[c.bench] = make(map[string]hscsim.Results)
		}
		res[c.bench][c.variant] = p.decoded[i]
	}
	pct := func(base, opt uint64) float64 {
		if base == 0 {
			return 0
		}
		return 100 * (float64(base) - float64(opt)) / float64(base)
	}
	avg := func(benches []string, f func(m map[string]hscsim.Results) float64) float64 {
		var s float64
		for _, b := range benches {
			s += f(res[b])
		}
		return s / float64(len(benches))
	}
	paper, collab := hscsim.Benchmarks(), hscsim.CollaborativeBenchmarks()
	rows := []struct {
		name       string
		sim, paper float64
	}{
		{"Fig. 4 % cycles saved, mean of earlyResp/noWBcleanVic/llcWB", avg(paper, func(m map[string]hscsim.Results) float64 {
			b := m["baseline"].Cycles
			return (pct(b, m["earlyResp"].Cycles) + pct(b, m["noWBcleanVic"].Cycles) + pct(b, m["llcWB"].Cycles)) / 3
		}), 1.68},
		{"Fig. 5 % fewer memory accesses, llcWB+useL3OnWT", avg(paper, func(m map[string]hscsim.Results) float64 {
			return pct(m["baseline"].MemAccesses(), m["llcWB+useL3OnWT"].MemAccesses())
		}), 50.38},
		{"Fig. 6 % cycles saved, sharersTracking", avg(collab, func(m map[string]hscsim.Results) float64 {
			return pct(m["baseline"].Cycles, m["sharersTracking"].Cycles)
		}), 14.4},
		{"Fig. 7 % fewer probes, sharersTracking", avg(collab, func(m map[string]hscsim.Results) float64 {
			return pct(m["baseline"].ProbesSent, m["sharersTracking"].ProbesSent)
		}), 80.3},
	}
	fmt.Fprintf(os.Stderr, "modelled-design accuracy, input seed %d (reference: the paper's gem5 averages; no hardware reference exists)\n", e.inputSeed())
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-62s sim %6.2f%%  paper %6.2f%%  error %+6.2f pts\n", r.name, r.sim, r.paper, r.sim-r.paper)
	}
}
