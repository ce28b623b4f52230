// Package engine is the concurrent simulation-job subsystem: a bounded
// worker pool that executes canonical job specs (workload × protocol
// variant × topology × seed) and memoizes their results in a
// content-addressed cache.
//
// Every simulation in this repository is a pure function of its spec —
// the determinism lint (internal/lint) and the conformance regression
// tests enforce it — so a job's result can be keyed by the SHA-256 hash
// of its canonically encoded spec and reused forever, invalidated only
// when the simulator's code changes (the Version constant below, which
// is folded into the hash). The sweep and figure drivers (cmd/hscsweep,
// cmd/hscfig), the benchmark harness and the hscserve HTTP service are
// all clients of the same engine, so a sweep re-run — or the same cell
// requested by two different tools — is a cache hit instead of minutes
// of re-simulation.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/figures"
	"hscsim/internal/heterosync"
	"hscsim/internal/sim"
	"hscsim/internal/system"
)

// Version is the simulator-code epoch folded into every job hash. The
// cache invalidation rule is (Version, spec): bump this string whenever
// a change alters any simulation result — protocol fixes, timing
// changes, workload generator edits — and every previously cached
// result becomes unreachable. Results never need explicit expiry
// because a given (Version, spec) pair can only ever produce one
// output.
const Version = "hscsim-engine/1"

// ProtocolSpec is the serializable mirror of core.Options (minus the
// Recorder, which is instrumentation, not protocol). Field names match
// core.Options so specs read like the rest of the repository.
type ProtocolSpec struct {
	EarlyDirtyResponse      bool   `json:"earlyDirtyResponse,omitempty"`
	NoWBCleanVicToMem       bool   `json:"noWBCleanVicToMem,omitempty"`
	NoWBCleanVicToLLC       bool   `json:"noWBCleanVicToLLC,omitempty"`
	LLCWriteBack            bool   `json:"llcWriteBack,omitempty"`
	UseL3OnWT               bool   `json:"useL3OnWT,omitempty"`
	Tracking                string `json:"tracking,omitempty"` // "", "owner", "owner+sharers"
	DirRepl                 string `json:"dirRepl,omitempty"`  // "", "fewestSharers"
	LimitedPointers         int    `json:"limitedPointers,omitempty"`
	ReadOnlyElision         bool   `json:"readOnlyElision,omitempty"`
	KeepDirtySharersOnEvict bool   `json:"keepDirtySharersOnEvict,omitempty"`
}

// ProtocolFromOptions converts core.Options into its spec form.
func ProtocolFromOptions(o core.Options) ProtocolSpec {
	p := ProtocolSpec{
		EarlyDirtyResponse:      o.EarlyDirtyResponse,
		NoWBCleanVicToMem:       o.NoWBCleanVicToMem,
		NoWBCleanVicToLLC:       o.NoWBCleanVicToLLC,
		LLCWriteBack:            o.LLCWriteBack,
		UseL3OnWT:               o.UseL3OnWT,
		LimitedPointers:         o.LimitedPointers,
		ReadOnlyElision:         o.ReadOnlyElision,
		KeepDirtySharersOnEvict: o.KeepDirtySharersOnEvict,
	}
	switch o.Tracking {
	case core.TrackOwner:
		p.Tracking = "owner"
	case core.TrackOwnerSharers:
		p.Tracking = "owner+sharers"
	}
	if o.DirRepl == core.DirReplFewestSharers {
		p.DirRepl = "fewestSharers"
	}
	return p
}

// Options converts the spec back into core.Options.
func (p ProtocolSpec) Options() (core.Options, error) {
	o := core.Options{
		EarlyDirtyResponse:      p.EarlyDirtyResponse,
		NoWBCleanVicToMem:       p.NoWBCleanVicToMem,
		NoWBCleanVicToLLC:       p.NoWBCleanVicToLLC,
		LLCWriteBack:            p.LLCWriteBack,
		UseL3OnWT:               p.UseL3OnWT,
		LimitedPointers:         p.LimitedPointers,
		ReadOnlyElision:         p.ReadOnlyElision,
		KeepDirtySharersOnEvict: p.KeepDirtySharersOnEvict,
	}
	switch p.Tracking {
	case "":
	case "owner":
		o.Tracking = core.TrackOwner
	case "owner+sharers":
		o.Tracking = core.TrackOwnerSharers
	default:
		return o, fmt.Errorf("engine: unknown tracking mode %q", p.Tracking)
	}
	switch p.DirRepl {
	case "":
	case "fewestSharers":
		o.DirRepl = core.DirReplFewestSharers
	default:
		return o, fmt.Errorf("engine: unknown directory replacement %q", p.DirRepl)
	}
	return o, nil
}

// TopologySpec overrides the structural parameters cmd/hscsweep
// characterizes. Zero values mean "keep the base configuration's
// default", so the canonical encoding of an untouched topology is
// empty.
type TopologySpec struct {
	NumCorePairs    int  `json:"numCorePairs,omitempty"`
	NumCUs          int  `json:"numCUs,omitempty"`
	NumTCCs         int  `json:"numTCCs,omitempty"`
	DirBanks        int  `json:"dirBanks,omitempty"`
	DirEntries      int  `json:"dirEntries,omitempty"`
	StoreBufferSize int  `json:"storeBufferSize,omitempty"`
	GPUWriteBackL2  bool `json:"gpuWriteBackL2,omitempty"`
	// StoreBufferZero distinguishes "StoreBufferSize: 0" (no store
	// buffer) from "unset" — the one sweep axis whose meaningful value
	// collides with the zero value.
	StoreBufferZero bool `json:"storeBufferZero,omitempty"`
}

// Base system configurations a spec can start from.
const (
	// ConfigEval is figures.EvalSystemConfig: Table II scaled to the
	// bundled workload sizes (the default).
	ConfigEval = "eval"
	// ConfigFull is system.Default: the paper's full-size Tables II/III.
	ConfigFull = "full"
)

// Spec is a canonical simulation job: one benchmark run under one
// protocol variant on one topology with one input seed. Two specs with
// the same Hash are guaranteed to produce byte-identical results (the
// simulator is deterministic; TestCachedResultByteIdentical holds the
// engine to it).
type Spec struct {
	// Bench is a bundled CHAI or HeteroSync benchmark name.
	Bench string `json:"bench"`
	// Scale and Threads size the workload (chai.Params /
	// heterosync.Params).
	Scale   int `json:"scale"`
	Threads int `json:"threads"`
	// Seed perturbs the workload's input-generation RNG (0 = the
	// paper's evaluation inputs).
	Seed int64 `json:"seed,omitempty"`

	Protocol ProtocolSpec `json:"protocol"`
	Topology TopologySpec `json:"topology"`

	// Config selects the base system configuration: ConfigEval
	// (default) or ConfigFull.
	Config string `json:"config"`
	// Oracle attaches the runtime coherence oracle to the run.
	Oracle bool `json:"oracle,omitempty"`
	// MaxTicks overrides the base configuration's deadlock ceiling
	// (0 = keep it).
	MaxTicks uint64 `json:"maxTicks,omitempty"`
}

// Normalized fills defaults so equivalent specs encode — and therefore
// hash — identically.
func (s Spec) Normalized() Spec {
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Threads <= 0 {
		s.Threads = chai.DefaultParams().CPUThreads
	}
	if s.Config == "" {
		s.Config = ConfigEval
	}
	if s.Topology.StoreBufferSize != 0 {
		s.Topology.StoreBufferZero = false
	}
	return s
}

// Validate rejects specs that cannot execute: unknown benchmarks, bad
// enum strings, impossible topologies.
func (s Spec) Validate() error {
	s = s.Normalized()
	if _, err := buildWorkload(s); err != nil {
		return err
	}
	if _, err := s.Protocol.Options(); err != nil {
		return err
	}
	switch s.Config {
	case ConfigEval, ConfigFull:
	default:
		return fmt.Errorf("engine: unknown base config %q (want %q or %q)", s.Config, ConfigEval, ConfigFull)
	}
	if b := s.Topology.DirBanks; b > 1 && b&(b-1) != 0 {
		return fmt.Errorf("engine: dirBanks=%d is not a power of two", b)
	}
	if s.Topology.NumCorePairs < 0 || s.Topology.NumCUs < 0 || s.Topology.NumTCCs < 0 ||
		s.Topology.DirEntries < 0 || s.Topology.StoreBufferSize < 0 {
		return fmt.Errorf("engine: negative topology parameter in %+v", s.Topology)
	}
	cfg, err := buildConfig(s)
	if err != nil {
		return err
	}
	if err := cfg.GPU.TCCBank().Check(); err != nil {
		return fmt.Errorf("engine: numTCCs=%d does not split the %d-byte TCC into valid banks: %w",
			cfg.GPU.NumTCCs, cfg.GPU.TCCSizeBytes, err)
	}
	return nil
}

// Canonical returns the spec's stable encoding: normalized defaults,
// fixed field order (Go encodes struct fields in declaration order),
// no maps. This is the byte string the content hash covers.
func (s Spec) Canonical() []byte {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("engine: canonical encoding failed: %v", err))
	}
	return b
}

// Hash is the job's content address: SHA-256 over the code version and
// the canonical spec encoding, rendered as lowercase hex.
func (s Spec) Hash() string {
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{'\n'})
	h.Write(s.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}

// String identifies the job in logs: bench/variant plus the hash
// prefix.
func (s Spec) String() string {
	opts, err := s.Protocol.Options()
	name := "invalid"
	if err == nil {
		name = opts.Named()
	}
	return fmt.Sprintf("%s/%s@%s", s.Bench, name, s.Hash()[:12])
}

// EvalSpec is the spec for one cell of the paper's evaluation sweep:
// the figures system configuration at the figures workload sizes. The
// sweep drivers and the benchmark harness all build their jobs through
// this, so the same cell requested by any of them is one cache entry.
func EvalSpec(bench string, opts core.Options) Spec {
	p := figures.EvalParams()
	return Spec{
		Bench:    bench,
		Scale:    p.Scale,
		Threads:  p.CPUThreads,
		Protocol: ProtocolFromOptions(opts),
		Config:   ConfigEval,
	}
}

// buildWorkload resolves the spec's benchmark, CHAI first then
// HeteroSync, exactly like the sweep drivers do.
func buildWorkload(s Spec) (system.Workload, error) {
	w, err := chai.ByName(s.Bench, chai.Params{Scale: s.Scale, CPUThreads: s.Threads, Seed: s.Seed})
	if err == nil {
		return w, nil
	}
	w, herr := heterosync.ByName(s.Bench, heterosync.Params{Scale: s.Scale})
	if herr == nil {
		return w, nil
	}
	return system.Workload{}, fmt.Errorf("engine: unknown benchmark %q (CHAI: %v; HeteroSync: %v)", s.Bench, err, herr)
}

// buildConfig assembles the spec's system configuration.
func buildConfig(s Spec) (system.Config, error) {
	opts, err := s.Protocol.Options()
	if err != nil {
		return system.Config{}, err
	}
	var cfg system.Config
	switch s.Config {
	case ConfigEval, "":
		cfg = figures.EvalSystemConfig(opts)
	case ConfigFull:
		cfg = system.Default()
		cfg.Protocol = opts
	default:
		return system.Config{}, fmt.Errorf("engine: unknown base config %q", s.Config)
	}
	t := s.Topology
	if t.NumCorePairs > 0 {
		cfg.NumCorePairs = t.NumCorePairs
	}
	if t.NumCUs > 0 {
		cfg.GPUDisp.NumCUs = t.NumCUs
	}
	if t.NumTCCs > 0 {
		cfg.GPU.NumTCCs = t.NumTCCs
	}
	if t.DirBanks > 0 {
		cfg.DirBanks = t.DirBanks
	}
	if t.DirEntries > 0 {
		cfg.Geometry.DirEntries = t.DirEntries
		if cfg.Geometry.DirAssoc > t.DirEntries/4 && t.DirEntries >= 4 {
			cfg.Geometry.DirAssoc = t.DirEntries / 4
		}
	}
	if t.StoreBufferSize > 0 {
		cfg.CPU.StoreBufferSize = t.StoreBufferSize
	} else if t.StoreBufferZero {
		cfg.CPU.StoreBufferSize = 0
	}
	cfg.GPU.WriteBackL2 = t.GPUWriteBackL2
	cfg.Oracle = s.Oracle
	if s.MaxTicks > 0 {
		cfg.MaxTicks = sim.Tick(s.MaxTicks)
	}
	return cfg, nil
}
