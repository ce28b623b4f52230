// Package hscsim is a simulator for Heterogeneous System Coherence in
// unified-memory CPU–GPU APUs, reproducing "Enhanced System-Level
// Coherence for Heterogeneous Unified Memory Architectures" (IISWC
// 2024).
//
// The simulated machine is an AMD-APU-class system: four CorePairs of
// two CPU cores behind MOESI L2s, an eight-CU GPU behind VIPER (VI)
// TCP/TCC caches, a DMA engine, and a system-level directory backed by
// a last-level cache — the gem5 model the paper starts from. On top of
// the stateless-directory baseline the simulator implements every
// enhancement the paper evaluates: early dirty-probe responses (§III-A),
// clean-victim write-back elision (§III-B/B1), a write-back LLC
// (§III-C), and the precise state-tracking directory with owner or
// owner+sharer tracking (§IV, Table I).
//
// # Quick start
//
//	cfg := hscsim.DefaultConfig()
//	cfg.Protocol = hscsim.ProtocolOptions{Tracking: hscsim.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}
//	res, err := hscsim.RunBenchmark("tq", cfg, hscsim.DefaultParams())
//
// Custom workloads are plain Go functions over the CPUThread/Wave
// contexts; see the examples directory.
package hscsim

import (
	"net/http"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/energy"
	"hscsim/internal/engine"
	"hscsim/internal/heterosync"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// Re-exported configuration and result types. Aliases keep the public
// surface in one import while the implementation lives in internal
// packages.
type (
	// Config describes the whole simulated APU (Tables II and III).
	Config = system.Config
	// ProtocolOptions selects the directory/LLC protocol variant.
	ProtocolOptions = core.Options
	// TrackingMode selects the §IV directory organization.
	TrackingMode = core.TrackingMode
	// Results are the measured outputs of one run.
	Results = system.Results
	// Workload is a runnable benchmark.
	Workload = system.Workload
	// System is an assembled simulated APU.
	System = system.System
	// Params scales the bundled CHAI workloads.
	Params = chai.Params

	// CPUThread is the context CPU-thread programs run against.
	CPUThread = prog.CPUThread
	// Wave is the context GPU wavefront programs run against.
	Wave = prog.Wave
	// Kernel describes a GPU grid.
	Kernel = prog.Kernel
	// KernelHandle tracks kernel completion.
	KernelHandle = prog.KernelHandle
	// Arena is a bump allocator over the unified memory space.
	Arena = prog.Arena
	// Memory is the functional view of unified memory.
	Memory = memdata.Memory
	// Addr is a byte address in unified memory.
	Addr = memdata.Addr
	// AtomicOp identifies an atomic read-modify-write operation.
	AtomicOp = memdata.AtomicOp
)

// Tracking modes (§IV).
const (
	TrackNone         = core.TrackNone
	TrackOwner        = core.TrackOwner
	TrackOwnerSharers = core.TrackOwnerSharers
)

// Directory-cache replacement policies (tree-PLRU default; the §VII
// future-work fewest-sharers policy as an ablation).
const (
	DirReplPLRU          = core.DirReplPLRU
	DirReplFewestSharers = core.DirReplFewestSharers
)

// Atomic operations.
const (
	AtomicAdd  = memdata.AtomicAdd
	AtomicMax  = memdata.AtomicMax
	AtomicMin  = memdata.AtomicMin
	AtomicExch = memdata.AtomicExch
	AtomicCAS  = memdata.AtomicCAS
	AtomicAnd  = memdata.AtomicAnd
	AtomicOr   = memdata.AtomicOr
)

// DefaultConfig returns the paper's full-size configuration (Tables II
// and III) with the baseline protocol.
func DefaultConfig() Config { return system.Default() }

// EvalConfig returns the evaluation configuration used to regenerate
// the paper's figures: Table II with caches scaled to the bundled
// workload sizes (see DESIGN.md).
func EvalConfig(opts ProtocolOptions) Config { return engine.EvalConfig(opts) }

// DefaultParams returns the default workload scaling.
func DefaultParams() Params { return chai.DefaultParams() }

// NewSystem assembles a simulated APU.
func NewSystem(cfg Config) *System { return system.New(cfg) }

// NewArena returns a bump allocator starting at base.
func NewArena(base Addr) *Arena { return prog.NewArena(base) }

// Benchmarks lists the bundled CHAI workloads the paper evaluates (§V).
func Benchmarks() []string { return chai.Names() }

// ExtendedBenchmarks lists the four CHAI benchmarks the paper could not
// run under gem5's O3 CPU (§V): bfs, sssp, tqh, cedt. This simulator
// runs all fourteen.
func ExtendedBenchmarks() []string { return chai.ExtendedNames() }

// HeteroSyncBenchmarks lists the bundled HeteroSync/Lulesh workloads
// the paper also evaluated (§V) — GPU-internal synchronization with
// limited CPU↔GPU collaboration.
func HeteroSyncBenchmarks() []string { return heterosync.Names() }

// NewHeteroSyncBenchmark builds a bundled HeteroSync workload by name.
func NewHeteroSyncBenchmark(name string, scale int) (Workload, error) {
	return heterosync.ByName(name, heterosync.Params{Scale: scale})
}

// CollaborativeBenchmarks lists the five heavily collaborating
// workloads the paper uses for the state-tracking figures.
func CollaborativeBenchmarks() []string { return chai.CollaborativeFive() }

// NewBenchmark builds a bundled CHAI workload by name.
func NewBenchmark(name string, p Params) (Workload, error) { return chai.ByName(name, p) }

// RunBenchmark builds and runs one bundled workload on a fresh system.
func RunBenchmark(name string, cfg Config, p Params) (Results, error) {
	w, err := chai.ByName(name, p)
	if err != nil {
		return Results{}, err
	}
	return system.New(cfg).Run(w)
}

// EnergyCosts are per-event energies (pJ) for EstimateEnergy.
type EnergyCosts = energy.Costs

// EnergyBreakdown is a per-component energy estimate.
type EnergyBreakdown = energy.Breakdown

// DefaultEnergyCosts returns first-order per-event energies.
func DefaultEnergyCosts() EnergyCosts { return energy.DefaultCosts() }

// EstimateEnergy converts a run's statistics into an energy estimate
// (the paper's Figs. 5 and 7 metrics are energy proxies; this makes the
// proxy explicit).
func EstimateEnergy(res Results, c EnergyCosts) EnergyBreakdown {
	return energy.Estimate(res.Stats, c)
}

// Job-engine re-exports: the concurrent simulation engine with its
// content-addressed result cache (see DESIGN.md, "Job engine & result
// cache"). Simulations are deterministic functions of their JobSpec, so
// results are memoized by spec hash and re-runs are cache hits.
type (
	// JobEngine is a bounded worker pool executing JobSpecs with
	// singleflight dedup in front of a JobCache.
	JobEngine = engine.Engine
	// JobEngineConfig sizes a JobEngine.
	JobEngineConfig = engine.Config
	// JobSpec is a canonical simulation job (workload × protocol ×
	// topology × seed); its SHA-256 hash is the result's cache key.
	JobSpec = engine.Spec
	// JobCache is the content-addressed result store (in-memory LRU
	// plus optional on-disk directory).
	JobCache = engine.Cache
	// SimJob is one submitted job: wait on it, cancel it, read its
	// canonical result bytes.
	SimJob = engine.Job
)

// NewJobEngine starts a job engine and its worker pool.
func NewJobEngine(cfg JobEngineConfig) *JobEngine { return engine.New(cfg) }

// NewJobCache returns a result cache holding maxEntries in memory
// (≤0 = default), persisted under dir when non-empty.
func NewJobCache(maxEntries int, dir string) (*JobCache, error) {
	return engine.NewCache(maxEntries, dir)
}

// EvalJobSpec is the job for one cell of the paper's evaluation sweep
// (EvalConfig at the evaluation workload sizes).
func EvalJobSpec(bench string, opts ProtocolOptions) JobSpec {
	return engine.EvalSpec(bench, opts)
}

// NewJobServer wraps a job engine in the hscserve HTTP/JSON API.
func NewJobServer(e *JobEngine) http.Handler { return engine.NewServer(e) }

// DecodeJobResult parses the canonical result bytes a job returns.
func DecodeJobResult(b []byte) (Results, error) { return engine.DecodeResult(b) }

// Sweep re-exports: the request body of POST /sweeps.
type (
	// SweepSpec describes a whole sweep (benches × variants × topology
	// points) expanded server-side into canonical JobSpec cells.
	SweepSpec = engine.SweepSpec
	// SweepPoint is one structural point of a sweep grid.
	SweepPoint = engine.SweepPoint
)

// NamedProtocolVariant resolves the eight variant names of the paper's
// figure legends (baseline, earlyResp, noWBcleanVic, noWBcleanVicLLC,
// llcWB, llcWB+useL3OnWT, ownerTracking, sharersTracking) used across
// the tools.
func NamedProtocolVariant(name string) (engine.ProtocolSpec, error) {
	return engine.NamedVariant(name)
}
