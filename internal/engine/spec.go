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
	"fmt"
	"strconv"
	"strings"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/heterosync"
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
	EarlyDirtyResponse bool   `json:"earlyDirtyResponse,omitempty"`
	NoWBCleanVicToMem  bool   `json:"noWBCleanVicToMem,omitempty"`
	NoWBCleanVicToLLC  bool   `json:"noWBCleanVicToLLC,omitempty"`
	LLCWriteBack       bool   `json:"llcWriteBack,omitempty"`
	UseL3OnWT          bool   `json:"useL3OnWT,omitempty"`
	Tracking           string `json:"tracking,omitempty"` // "", "owner", "owner+sharers"
	DirRepl            string `json:"dirRepl,omitempty"`  // "", "fewestSharers"
	LimitedPointers    int    `json:"limitedPointers,omitempty"`
	ReadOnlyElision    bool   `json:"readOnlyElision,omitempty"`
}

// ProtocolFromOptions converts core.Options into its spec form.
func ProtocolFromOptions(o core.Options) ProtocolSpec {
	p := ProtocolSpec{
		EarlyDirtyResponse: o.EarlyDirtyResponse,
		NoWBCleanVicToMem:  o.NoWBCleanVicToMem,
		NoWBCleanVicToLLC:  o.NoWBCleanVicToLLC,
		LLCWriteBack:       o.LLCWriteBack,
		UseL3OnWT:          o.UseL3OnWT,
		LimitedPointers:    o.LimitedPointers,
		ReadOnlyElision:    o.ReadOnlyElision,
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
		EarlyDirtyResponse: p.EarlyDirtyResponse,
		NoWBCleanVicToMem:  p.NoWBCleanVicToMem,
		NoWBCleanVicToLLC:  p.NoWBCleanVicToLLC,
		LLCWriteBack:       p.LLCWriteBack,
		UseL3OnWT:          p.UseL3OnWT,
		LimitedPointers:    p.LimitedPointers,
		ReadOnlyElision:    p.ReadOnlyElision,
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
	// ConfigEval is EvalConfig: Table II scaled to the bundled
	// workload sizes (the default).
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
}

// Normalized fills defaults so equivalent specs encode — and therefore
// hash — identically. Threads becomes the number of CPU threads the
// workload starts, so specs that differ only in a thread count the
// workload ignores are one cache entry.
func (s Spec) Normalized() Spec {
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Threads <= 0 {
		s.Threads = chai.DefaultParams().CPUThreads
	}
	if n, ok := chai.StartedThreads(s.Bench, chai.Params{CPUThreads: s.Threads}); ok {
		s.Threads = n
	} else if heterosync.Known(s.Bench) {
		s.Threads = heterosync.CPUThreads
	}
	if s.Config == "" {
		s.Config = ConfigEval
	}
	if s.Topology.StoreBufferSize != 0 {
		s.Topology.StoreBufferZero = false
	}
	return s
}

// Size limits Validate enforces, so that no small request body makes a
// job whose workload or system cannot fit in memory. Each is the
// largest size a client in this repository asks for, with headroom.
const (
	// MaxScale bounds the workload scale. perfbench's gpu-sync cells
	// use 48; the paper's evaluation uses 2.
	MaxScale = 64
	// MaxCorePairs and MaxCUs bound the topology's CorePairs and GPU
	// compute units. hscsweep sweeps up to 4 and 8.
	MaxCorePairs = 64
	MaxCUs       = 64
	// MaxDirEntries bounds the directory's entry count. Table II's
	// directory has 256 K entries.
	MaxDirEntries = 1 << 20
)

// Validate rejects specs that cannot execute: unknown benchmarks, bad
// enum strings, sizes beyond the limits above, impossible topologies,
// more started threads than cores. It builds neither the workload nor
// the system, so its cost does not grow with the sizes a spec asks for.
func (s Spec) Validate() error {
	s = s.Normalized()
	if !chai.Known(s.Bench) && !heterosync.Known(s.Bench) {
		return fmt.Errorf("engine: unknown benchmark %q (CHAI: %s; HeteroSync: %s)", s.Bench,
			strings.Join(chai.AllNames(), ", "), strings.Join(heterosync.Names(), ", "))
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
	for _, f := range []struct {
		name     string
		v, limit int
	}{
		{"scale", s.Scale, MaxScale},
		{"numCorePairs", s.Topology.NumCorePairs, MaxCorePairs},
		{"numCUs", s.Topology.NumCUs, MaxCUs},
		{"dirEntries", s.Topology.DirEntries, MaxDirEntries},
	} {
		if f.v > f.limit {
			return fmt.Errorf("engine: %s=%d is above the limit of %d", f.name, f.v, f.limit)
		}
	}
	cfg, err := buildConfig(s)
	if err != nil {
		return err
	}
	// Normalized set Threads to the number of threads the workload
	// starts.
	if cores := cfg.NumCorePairs * corepair.Cores; s.Threads > cores {
		return fmt.Errorf("engine: %s wants %d threads, numCorePairs=%d has %d cores",
			s.Bench, s.Threads, cfg.NumCorePairs, cores)
	}
	if err := cfg.GPU.TCCBank().Check(); err != nil {
		return fmt.Errorf("engine: numTCCs=%d does not split the %d-byte TCC into valid banks: %w",
			cfg.GPU.NumTCCs, cfg.GPU.TCCSizeBytes, err)
	}
	banks := max(cfg.DirBanks, 1)
	geo := cfg.Geometry.Bank(banks)
	if err := geo.LLCArray().Check(); err != nil {
		return fmt.Errorf("engine: dirBanks=%d does not split the %d-byte LLC into valid banks: %w",
			banks, cfg.Geometry.LLCSizeBytes, err)
	}
	if cfg.Protocol.Tracking != core.TrackNone {
		if n := cfg.NumCorePairs + max(cfg.GPU.NumTCCs, 1); n > core.MaxTrackedTargets {
			return fmt.Errorf("engine: numCorePairs=%d plus numTCCs=%d gives %d probe targets; a tracking directory tracks at most %d",
				cfg.NumCorePairs, max(cfg.GPU.NumTCCs, 1), n, core.MaxTrackedTargets)
		}
		if err := geo.DirArray().Check(); err != nil {
			return fmt.Errorf("engine: dirEntries=%d over dirBanks=%d gives no valid directory cache: %w",
				cfg.Geometry.DirEntries, banks, err)
		}
	}
	return nil
}

// Canonical returns the spec's stable encoding: the bytes json.Marshal
// writes for the normalized spec, with the fields in declaration order
// and no maps. This is the byte string the content hash covers.
func (s Spec) Canonical() []byte {
	return s.Normalized().appendCanonical(nil)
}

// appendCanonical appends the canonical encoding of s, which must be
// normalized. It writes by hand what json.Marshal writes, fields in
// declaration order and the omitempty ones only when set, so hashing a
// spec reflects over nothing; FuzzSpecCanonical holds it to
// json.Marshal, and TestSpecHashPinned to the hashes on disk.
func (s Spec) appendCanonical(b []byte) []byte {
	b = append(b, `{"bench":`...)
	b = appendQuoted(b, s.Bench)
	b = append(b, `,"scale":`...)
	b = strconv.AppendInt(b, int64(s.Scale), 10)
	b = append(b, `,"threads":`...)
	b = strconv.AppendInt(b, int64(s.Threads), 10)
	if s.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, s.Seed, 10)
	}
	p, t := s.Protocol, s.Topology
	b = append(b, `,"protocol":{`...)
	b = appendBool(b, "earlyDirtyResponse", p.EarlyDirtyResponse)
	b = appendBool(b, "noWBCleanVicToMem", p.NoWBCleanVicToMem)
	b = appendBool(b, "noWBCleanVicToLLC", p.NoWBCleanVicToLLC)
	b = appendBool(b, "llcWriteBack", p.LLCWriteBack)
	b = appendBool(b, "useL3OnWT", p.UseL3OnWT)
	b = appendString(b, "tracking", p.Tracking)
	b = appendString(b, "dirRepl", p.DirRepl)
	b = appendInt(b, "limitedPointers", p.LimitedPointers)
	b = appendBool(b, "readOnlyElision", p.ReadOnlyElision)
	b = append(endObject(b), `,"topology":{`...)
	b = appendInt(b, "numCorePairs", t.NumCorePairs)
	b = appendInt(b, "numCUs", t.NumCUs)
	b = appendInt(b, "numTCCs", t.NumTCCs)
	b = appendInt(b, "dirBanks", t.DirBanks)
	b = appendInt(b, "dirEntries", t.DirEntries)
	b = appendInt(b, "storeBufferSize", t.StoreBufferSize)
	b = appendBool(b, "gpuWriteBackL2", t.GPUWriteBackL2)
	b = appendBool(b, "storeBufferZero", t.StoreBufferZero)
	b = append(endObject(b), `,"config":`...)
	b = appendQuoted(b, s.Config)
	return append(b, '}')
}

// appendBool, appendInt and appendString write one omitempty field of
// an object and its trailing comma, or nothing for the zero value;
// endObject replaces the last field's comma with the closing brace.
func appendBool(b []byte, k string, v bool) []byte {
	if !v {
		return b
	}
	return append(appendKey(b, k), "true,"...)
}

func appendInt(b []byte, k string, v int) []byte {
	if v == 0 {
		return b
	}
	return append(strconv.AppendInt(appendKey(b, k), int64(v), 10), ',')
}

func appendString(b []byte, k, v string) []byte {
	if v == "" {
		return b
	}
	return append(appendQuoted(appendKey(b, k), v), ',')
}

// appendKey writes `"k":` for a key that needs no escaping.
func appendKey(b []byte, k string) []byte {
	return append(append(append(b, '"'), k...), `":`...)
}

func endObject(b []byte) []byte {
	if b[len(b)-1] == ',' {
		b[len(b)-1] = '}'
		return b
	}
	return append(b, '}')
}

// Hash is the job's content address: SHA-256 over the code version and
// the canonical spec encoding, rendered as lowercase hex.
func (s Spec) Hash() string { return s.Normalized().hash() }

// hash is Hash of a spec that is already normalized. The encoding is
// built in a buffer on the stack, so the returned string is the one
// allocation.
func (s Spec) hash() string {
	var buf [256]byte
	b := append(buf[:0], Version+"\n"...)
	sum := sha256.Sum256(s.appendCanonical(b))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
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

// EvalParams are the workload sizes of the paper's evaluation.
func EvalParams() chai.Params { return chai.Params{Scale: 2, CPUThreads: 8} }

// EvalConfig returns the system configuration of the paper's
// evaluation (ConfigEval). It is Table II with every cache scaled down
// by the same factor as the workload working sets (the paper's
// full-size inputs are impractical in a pure-Go event simulator;
// keeping the cache-to-working-set ratio preserves victim, probe and
// miss behaviour — see DESIGN.md, substitutions).
func EvalConfig(opts core.Options) system.Config {
	cfg := system.Default()
	cfg.Protocol = opts

	// CPU caches (÷64 from Table II).
	cfg.CorePair.L2SizeBytes = 32 << 10
	cfg.CorePair.L1DSizeBytes = 4 << 10
	cfg.CorePair.L1ISizeBytes = 4 << 10
	// GPU caches (÷8: GPU working sets are streamed).
	cfg.GPU.TCCSizeBytes = 32 << 10
	cfg.GPU.TCPSizeBytes = 4 << 10
	cfg.GPU.SQCSizeBytes = 8 << 10
	// LLC and directory (÷32; the directory keeps as many entries as
	// the LLC has lines, the Table II ratio).
	cfg.Geometry.LLCSizeBytes = 512 << 10
	cfg.Geometry.DirEntries = 8 << 10
	// Memory channel: scaled-down workloads produce proportionally less
	// traffic, so the channel is narrowed to keep the same relative
	// contention the full-size system sees (the §III-B/C optimizations
	// buy back channel occupancy, which is where their cycles come from).
	cfg.Mem.CyclesPerAccess = 8
	return cfg
}

// EvalSpec is the spec for one cell of the paper's evaluation: the
// evaluation configuration at the evaluation workload sizes. Every
// figure, table and ablation cell and the benchmark harness build
// their jobs through this, so the same cell requested by any of them
// is one cache entry.
func EvalSpec(bench string, opts core.Options) Spec {
	p := EvalParams()
	return Spec{
		Bench:    bench,
		Scale:    p.Scale,
		Threads:  p.CPUThreads,
		Protocol: ProtocolFromOptions(opts),
		Config:   ConfigEval,
	}
}

// buildWorkload resolves the spec's benchmark, CHAI first then
// HeteroSync.
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
		cfg = EvalConfig(opts)
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
	return cfg, nil
}
