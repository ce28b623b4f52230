// Package system assembles the full simulated APU — CorePairs, GPU,
// DMA, system-level directory, LLC, interconnect and memory — from a
// Config matching the paper's Tables II and III, and runs workloads on
// it to completion.
package system

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/cpu"
	"hscsim/internal/dma"
	"hscsim/internal/fsm"
	"hscsim/internal/gpu"
	"hscsim/internal/gpucache"
	"hscsim/internal/memctrl"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/prog"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
	"hscsim/internal/trace"
	"hscsim/internal/verify"
)

// Config describes the whole APU plus the protocol variant under test.
type Config struct {
	NumCorePairs int // 4 (Table III), each of corepair.Cores cores

	CorePair corepair.Config
	GPU      gpucache.Config
	GPUDisp  gpu.Config
	CPU      cpu.Config

	Protocol core.Options
	Timing   core.Timing
	Geometry core.Geometry

	NoC noc.Config
	Mem memctrl.Config

	// DirBanks distributes the system-level directory (and its LLC
	// slice) over N address-interleaved banks (§VII future work:
	// "the state-tracking directory can be made compatible with
	// distributed directories"). Must be a power of two; 0/1 means the
	// paper's single monolithic directory.
	DirBanks int

	// Oracle attaches the runtime coherence oracle (internal/verify):
	// every message delivery is cross-checked against a golden version
	// mirror, and Run fails with a *core.ProtocolViolation error on the
	// first breach of the coherence invariants (verify.CheckLine), the
	// data-value invariant or the oracle's mirror. Directory
	// cross-checks follow BankFor, so banked directories are covered
	// too. Simulation results are unchanged; expect a constant-factor
	// slowdown.
	Oracle bool

	// Mutate, when non-nil, rewrites (or drops, by returning false)
	// every interconnect message at delivery time. Fault injection for
	// the conformance harness (internal/conform): seeding a protocol
	// weakening here must make the oracle or the differential check
	// fail. Never set in measurement runs.
	Mutate noc.Mutator

	// MaxTicks aborts deadlocked/runaway runs.
	MaxTicks sim.Tick

	// Interrupt, when non-nil, cancels a run in flight: once the channel
	// closes, the event loop stops between events and Run returns an
	// error wrapping sim.ErrInterrupted. The job engine (internal/engine)
	// wires a context's Done channel here for per-job timeouts and
	// graceful shutdown. A run that is never interrupted is bit-for-bit
	// identical to one with no channel installed.
	Interrupt <-chan struct{}
}

// Default returns the paper's configuration (Tables II and III) with
// the baseline protocol.
func Default() Config {
	return Config{
		NumCorePairs: 4,
		CorePair:     corepair.DefaultConfig(),
		GPU:          gpucache.DefaultConfig(),
		GPUDisp:      gpu.DefaultConfig(),
		CPU:          cpu.DefaultConfig(),
		Timing:       core.DefaultTiming(),
		Geometry:     core.DefaultGeometry(),
		NoC:          noc.DefaultConfig(),
		Mem:          memctrl.DefaultConfig(),
		MaxTicks:     2_000_000_000,
	}
}

// Workload is a complete benchmark: per-thread CPU programs (thread 0
// is the host and may launch kernels), optional functional-memory
// initialization, and a result check.
type Workload struct {
	Name string
	// Setup pre-initializes input data in functional memory (the part
	// of the original benchmarks that runs before the region of
	// interest).
	Setup func(fm *memdata.Memory)
	// Threads are the CPU thread programs; len(Threads) must not exceed
	// NumCorePairs*corepair.Cores. Threads communicate only through
	// simulated memory and kernel handles.
	Threads []func(*prog.CPUThread)
	// Verify checks the computed results in functional memory.
	Verify func(fm *memdata.Memory) error
	// ReadOnly declares byte ranges [start, end) that are never written
	// during the run. With Protocol.ReadOnlyElision the directory
	// serves them probe- and tracking-free (§IX future work).
	ReadOnly [][2]memdata.Addr
	// UnstableImage declares that the final memory image legally depends
	// on scheduling: the workload claims output slots dynamically (e.g.
	// a fetch-add compaction cursor or a work frontier), so differently
	// timed runs place the same results at different addresses. Verify
	// still decides semantic correctness; the differential conformance
	// harness skips only the cross-variant image comparison.
	UnstableImage bool
}

// System is the assembled APU.
type System struct {
	Cfg     Config
	Engine  *sim.Engine
	FuncMem *memdata.Memory

	IC        *noc.Interconnect
	Mem       *memctrl.Controller
	roRanges  []core.LineRange
	Dir       *core.Directory // bank 0 (the whole directory when DirBanks ≤ 1)
	DirBanks  []*core.Directory
	CorePairs []*corepair.CorePair
	Cores     []*cpu.Core
	GPUCaches *gpucache.GPUCaches
	GPU       *gpu.Dispatcher
	DMA       *dma.Engine

	oracle     *verify.Oracle
	oracleViol *core.ProtocolViolation

	// finished counts the run's threads that have returned; threadDone,
	// bound once, is every thread's exit callback.
	finished   int
	threadDone func()
}

// Node-ID layout: L2s occupy 0..n-1; TCC banks, DMA, the directory
// request port, then one node per directory bank.
func nodeLayout(nPairs, nTCCs int) (l2s, tccs []msg.NodeID, dmaID, dir msg.NodeID) {
	for i := 0; i < nPairs; i++ {
		l2s = append(l2s, msg.NodeID(i))
	}
	for t := 0; t < nTCCs; t++ {
		tccs = append(tccs, msg.NodeID(nPairs+t))
	}
	return l2s, tccs, msg.NodeID(nPairs + nTCCs), msg.NodeID(nPairs + nTCCs + 1)
}

// dirBankFor routes a line to its directory bank: interleaved on
// 64-line (4 KB) superblocks so each bank's set index still sees the
// full low-order address entropy.
func dirBankFor(line cachearray.LineAddr, banks int) int {
	if banks <= 1 {
		return 0
	}
	return int((uint64(line) >> 6) % uint64(banks))
}

// BankFor returns the directory bank responsible for a line.
func (s *System) BankFor(line cachearray.LineAddr) *core.Directory {
	return s.DirBanks[dirBankFor(line, len(s.DirBanks))]
}

// dirRouter demultiplexes directory-bound requests to their bank with
// zero added latency (the banks themselves pay the directory latency).
type dirRouter struct {
	banks []*core.Directory
}

// Receive forwards to the owning bank.
func (r *dirRouter) Receive(m msg.Message) {
	r.banks[dirBankFor(m.Addr, len(r.banks))].Receive(m)
}

// New assembles a System.
func New(cfg Config) *System {
	engine := sim.NewEngine()
	fm := memdata.New()

	ic := noc.New(engine, cfg.NoC)
	mem := memctrl.New(engine, cfg.Mem)

	nTCCs := cfg.GPU.NumTCCs
	if nTCCs < 1 {
		nTCCs = 1
	}
	l2IDs, tccIDs, dmaID, dirID := nodeLayout(cfg.NumCorePairs, nTCCs)

	s := &System{
		Engine:  engine,
		FuncMem: fm,
		IC:      ic,
		Mem:     mem,
	}
	s.threadDone = func() { s.finished++ }

	banks := cfg.DirBanks
	if banks < 1 {
		banks = 1
	}
	if banks&(banks-1) != 0 {
		panic(fmt.Sprintf("system: DirBanks=%d is not a power of two", banks))
	}
	bankGeo := cfg.Geometry.Bank(banks)
	for b := 0; b < banks; b++ {
		bankID := dirID
		if banks > 1 {
			bankID = dirID + 1 + msg.NodeID(b)
		}
		bank := core.NewDirectory(engine, ic, mem, fm, core.DirectoryConfig{
			ID: bankID, L2s: l2IDs, TCCs: tccIDs,
			Opts: cfg.Protocol, Timing: cfg.Timing, Geo: bankGeo,
		})
		ic.Register(bankID, bank)
		s.DirBanks = append(s.DirBanks, bank)
	}
	s.Dir = s.DirBanks[0]
	if banks > 1 {
		// Requesters address the directory port; the router hands each
		// line to its bank inline.
		ic.Register(dirID, &dirRouter{banks: s.DirBanks})
	}

	gcfg := cfg.GPU
	gcfg.NumTCCs = nTCCs
	s.GPUCaches = gpucache.New(engine, ic, tccIDs, dirID, fm, gcfg, cfg.GPUDisp.NumCUs)
	s.GPU = gpu.New(engine, s.GPUCaches, fm, cfg.GPUDisp)
	s.DMA = dma.New(engine, ic, dmaID, dirID)

	// Code regions live high in the address space, far from data.
	const codeBase = memdata.Addr(0xF000_0000)
	for p := 0; p < cfg.NumCorePairs; p++ {
		pair := corepair.New(engine, ic, l2IDs[p], dirID, cfg.CorePair)
		s.CorePairs = append(s.CorePairs, pair)
	}
	if r := cfg.Protocol.Recorder; r != nil {
		// One recorder for the whole system: the directory banks read it
		// from their Options copy; the other controllers are wired here.
		s.GPUCaches.SetRecorder(r)
		s.GPU.SetRecorder(r)
		s.DMA.SetRecorder(r)
		for _, pair := range s.CorePairs {
			pair.SetRecorder(r)
		}
	}
	if cfg.Mutate != nil {
		ic.SetMutator(cfg.Mutate)
	}
	if cfg.Oracle {
		s.oracle = verify.NewOracle(verify.OracleConfig{
			Engine: engine,
			CPUs:   s.CorePairs,
			GPU:    s.GPUCaches,
			Dir:    s.Dir,
			DirFor: s.BankFor,
			Opts:   cfg.Protocol,
			// Bound late: Run installs the workload's read-only ranges
			// after New, and s.lineIsReadOnly reads them through s.
			ReadOnly: s.lineIsReadOnly,
			Report: func(v *core.ProtocolViolation) {
				if s.oracleViol == nil {
					s.oracleViol = v
				}
			},
		})
		ic.SetDeliveryHook(s.oracle.OnDeliver)
		cfg.CPU.Observer = s.oracle
	}
	for p := 0; p < cfg.NumCorePairs; p++ {
		pair := s.CorePairs[p]
		for c := 0; c < corepair.Cores; c++ {
			coreIdx := p*corepair.Cores + c
			base := codeBase + memdata.Addr(coreIdx)*0x10000
			s.Cores = append(s.Cores, cpu.New(engine, pair, c, fm, s.GPU, s.DMA, cfg.CPU, base))
		}
	}
	s.configure(cfg)
	return s
}

// Reset returns the system to the state New(cfg) builds, keeping every
// component's storage (DESIGN.md, "Job engine & result cache"). cfg
// must have the shape s was built for: only Protocol, Interrupt and
// MaxTicks may differ from s.Cfg (sameShape). Simulated time, event
// sequence numbers, transaction IDs and every counter restart at 0, so
// a run on a reset system produces the bytes a run on a new one does.
func (s *System) Reset(cfg Config) {
	if !sameShape(s.Cfg, cfg) {
		panic("system: Reset with a config of another shape")
	}
	s.reset(cfg)
}

// reset is Reset without the shape check, for a Runner that made it.
func (s *System) reset(cfg Config) {
	s.Engine.Reset()
	s.FuncMem.Reset()
	s.IC.Reset()
	s.Mem.Reset()
	for _, bank := range s.DirBanks {
		bank.Reset(cfg.Protocol)
	}
	for _, pair := range s.CorePairs {
		pair.Reset()
	}
	for _, c := range s.Cores {
		c.Reset()
	}
	s.GPUCaches.Reset()
	s.GPU.Reset()
	s.DMA.Reset()
	if s.oracle != nil {
		s.oracle.Reset(cfg.Protocol)
	}
	s.configure(cfg)
}

// configure sets what the system itself holds of cfg and of a run: the
// config, the engine's limits, and no read-only ranges, oracle verdict
// or finished threads.
func (s *System) configure(cfg Config) {
	s.Cfg = cfg
	s.Engine.MaxTicks = cfg.MaxTicks
	s.Engine.Interrupt = cfg.Interrupt
	s.roRanges = s.roRanges[:0]
	s.oracleViol = nil
	s.finished = 0
}

// shape is the part of a config a system is built for: all of it but
// Protocol, Interrupt and MaxTicks, which Reset sets. The protocol's
// Recorder is shape too: New wires it into every controller.
func shape(cfg Config) Config {
	cfg.Protocol = core.Options{Recorder: cfg.Protocol.Recorder}
	cfg.Interrupt, cfg.MaxTicks = nil, 0
	return cfg
}

// sameShape reports whether a system built for a can be reset for b.
func sameShape(a, b Config) bool { return reflect.DeepEqual(shape(a), shape(b)) }

// Transitions returns the transition recorder configured via
// Config.Protocol.Recorder (nil when recording is off).
func (s *System) Transitions() *fsm.Recorder { return s.Cfg.Protocol.Recorder }

// OracleChecks reports how many line-state checks the coherence oracle
// has performed (0 when Config.Oracle is off).
func (s *System) OracleChecks() uint64 {
	if s.oracle == nil {
		return 0
	}
	return s.oracle.Checks()
}

// TraceTo streams every interconnect message of subsequent runs to w as
// JSON lines (see internal/trace); pass nil to stop tracing.
func (s *System) TraceTo(w io.Writer) {
	if w == nil {
		s.IC.SetTracer(nil)
		return
	}
	tw := trace.NewWriter(w)
	s.IC.SetTracer(func(t sim.Tick, m msg.Message) {
		// Encoding errors surface at analysis time; tracing must never
		// perturb the run.
		_ = tw.Write(trace.FromMessage(t, m))
	})
}

// Results summarizes a run with the metrics the paper's figures report.
type Results struct {
	Name   string
	Config string

	Cycles     uint64 // simulated ticks (CPU cycles) — Figs. 4 and 6
	MemReads   uint64 // directory→memory reads — Fig. 5
	MemWrites  uint64 // directory→memory writes — Fig. 5
	ProbesSent uint64 // probes out of the directory — Fig. 7
	LLCHits    uint64
	NoCBytes   uint64

	Stats map[string]uint64
}

// MemAccesses is reads+writes (Fig. 5's bar height).
func (r Results) MemAccesses() uint64 { return r.MemReads + r.MemWrites }

// Run executes the workload to completion and returns measured results.
// It errors if the run exceeds MaxTicks, a thread never finishes, or
// verification fails. Whatever the outcome, it stops every workload
// coroutine before it returns, so the system leaves no goroutine
// behind; a Runner keeps them for its next job instead.
func (s *System) Run(w Workload) (Results, error) {
	defer s.stop()
	return s.run(w)
}

// stop ends every workload coroutine: the cores' thread slots and the
// GPU's wave slots, idle or suspended mid-op. A later run makes new
// ones.
func (s *System) stop() {
	for _, c := range s.Cores {
		c.Abort()
	}
	s.GPU.Abort()
}

// run is Run without the teardown: idle workload coroutines stay
// parked, and a run cut short (MaxTicks, an interrupt, a deadlock, a
// panic) leaves threads and resident waves suspended mid-op until stop.
func (s *System) run(w Workload) (Results, error) {
	if len(w.Threads) > len(s.Cores) {
		return Results{}, fmt.Errorf("system: workload %q wants %d threads, have %d cores",
			w.Name, len(w.Threads), len(s.Cores))
	}
	if w.Setup != nil {
		w.Setup(s.FuncMem)
	}
	if len(w.ReadOnly) > 0 {
		s.roRanges = s.roRanges[:0]
		for _, r := range w.ReadOnly {
			if r[1] <= r[0] {
				return Results{}, fmt.Errorf("system: workload %q has an empty read-only range %v", w.Name, r)
			}
			s.roRanges = append(s.roRanges, core.LineRange{
				First: cachearray.LineAddr(r[0] >> 6),
				Last:  cachearray.LineAddr((r[1] - 1) >> 6),
			})
		}
		for _, bank := range s.DirBanks {
			bank.SetReadOnly(s.roRanges)
		}
	}

	s.finished = 0
	for i, fn := range w.Threads {
		s.Cores[i].Run(i, fn, s.threadDone)
	}

	if err := s.Engine.Run(); err != nil {
		return Results{}, fmt.Errorf("system: workload %q: %w", w.Name, err)
	}
	if s.oracleViol != nil {
		return Results{}, fmt.Errorf("system: workload %q: coherence oracle: %w", w.Name, s.oracleViol)
	}
	if s.finished != len(w.Threads) {
		return Results{}, fmt.Errorf("system: workload %q deadlocked: %d/%d threads finished",
			w.Name, s.finished, len(w.Threads))
	}
	for b, bank := range s.DirBanks {
		if !bank.Idle() {
			return Results{}, fmt.Errorf("system: workload %q left directory bank %d transactions in flight", w.Name, b)
		}
	}
	if s.oracle != nil {
		if v := s.oracle.CheckFinal(); v != nil {
			return Results{}, fmt.Errorf("system: workload %q: coherence oracle: %w", w.Name, v)
		}
	}
	if w.Verify != nil {
		if err := w.Verify(s.FuncMem); err != nil {
			return Results{}, fmt.Errorf("system: workload %q failed verification: %w", w.Name, err)
		}
	}

	res := Results{
		Name:      w.Name,
		Config:    s.Cfg.Protocol.Named(),
		Cycles:    uint64(s.Engine.Now()),
		MemReads:  s.Mem.Stats.Reads,
		MemWrites: s.Mem.Stats.Writes,
		NoCBytes:  s.IC.Stats.Bytes,
		Stats:     make(map[string]uint64, 128),
	}
	for _, bank := range s.DirBanks {
		res.ProbesSent += bank.Stats.ProbesSent
		res.LLCHits += bank.LLCStats().ReadHits
	}
	s.appendStats(res.Stats, nil)
	return res, nil
}

// Counter name tables, one per component type.
var (
	nocStats      = stats.NewTable[noc.Stats]()
	memStats      = stats.NewTable[memctrl.Stats]()
	dirStats      = stats.NewTable[core.DirStats]()
	llcStats      = stats.NewTable[core.LLCStats]()
	gpuCacheStats = stats.NewTable[gpucache.Stats]()
	gpuDispStats  = stats.NewTable[gpu.Stats]()
	dmaStats      = stats.NewTable[dma.Stats]()
	corePairStats = stats.NewTable[corepair.Stats]()
	coreStats     = stats.NewTable[cpu.Stats]()
)

// appendStats adds every component's counters to counters and its
// histograms to hists (either may be nil), keyed "prefix.name". The
// prefixes are noc, mem, dir and llc (dirN and llcN per bank when the
// directory is banked), gpu (the caches), gpudisp, dma, cpN and coreN.
func (s *System) appendStats(counters map[string]uint64, hists map[string]*stats.Histogram) {
	nocStats.Append(counters, hists, "noc", &s.IC.Stats)
	memStats.Append(counters, hists, "mem", &s.Mem.Stats)
	for b, bank := range s.DirBanks {
		dir, llc := "dir", "llc"
		if len(s.DirBanks) > 1 {
			dir, llc = stats.Indexed("dir", b), stats.Indexed("llc", b)
		}
		dirStats.Append(counters, hists, dir, &bank.Stats)
		llcStats.Append(counters, hists, llc, bank.LLCStats())
	}
	gpuCacheStats.Append(counters, hists, "gpu", &s.GPUCaches.Stats)
	gpuDispStats.Append(counters, hists, "gpudisp", &s.GPU.Stats)
	dmaStats.Append(counters, hists, "dma", &s.DMA.Stats)
	for p, pair := range s.CorePairs {
		corePairStats.Append(counters, hists, stats.Indexed("cp", p), &pair.Stats)
	}
	for i, c := range s.Cores {
		coreStats.Append(counters, hists, stats.Indexed("core", i), &c.Stats)
	}
}

// DumpHistograms renders every latency histogram, sorted by name, one
// "name: summary" line each.
func (s *System) DumpHistograms() string {
	hists := make(map[string]*stats.Histogram)
	s.appendStats(nil, hists)
	names := make([]string, 0, len(hists))
	for n := range hists { //hsclint:deterministic — keys are sorted before rendering
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s: %s\n", n, hists[n])
	}
	return b.String()
}
