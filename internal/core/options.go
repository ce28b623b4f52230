// Package core implements the paper's primary contribution: the
// system-level directory and last-level cache of the heterogeneous
// unified memory architecture, in every variant the paper evaluates.
//
// The baseline reproduces the gem5 AMD APU protocol of §II: a stateless
// directory that broadcasts probes on every request and a write-through,
// non-inclusive victim LLC. On top of it the package implements:
//
//   - §III-A  early response on the first dirty probe acknowledgment,
//   - §III-B  no write-back of clean victims to memory
//     (§III-B1: optionally not even to the LLC),
//   - §III-C  a write-back LLC with per-line dirty bits,
//   - §IV     a precise state-tracking directory cache (owner tracking
//     and full-map sharer tracking, Table I), with backward
//     invalidations on directory-entry replacement.
package core

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/fsm"
	"hscsim/internal/sim"
)

// Transition-table machine names used by the directory's recording
// sites (see internal/proto for the extraction pass that reads them).
const (
	machStateless = "dir.stateless"
	machTracked   = "dir.tracked"
	machLLC       = "dir.llc"
	machRO        = "dir.ro"
)

// TrackingMode selects the directory organization of §IV.
type TrackingMode uint8

// Tracking modes.
const (
	// TrackNone is the stateless baseline directory: no per-line state,
	// probes broadcast on every request.
	TrackNone TrackingMode = iota
	// TrackOwner tracks I/S/O per line; reads of O lines probe only the
	// owner; write-permission requests still broadcast invalidations.
	TrackOwner
	// TrackOwnerSharers additionally tracks a sharer list, so
	// invalidations (including backward invalidations) become multicasts.
	TrackOwnerSharers
)

func (t TrackingMode) String() string {
	switch t {
	case TrackOwner:
		return "owner"
	case TrackOwnerSharers:
		return "owner+sharers"
	}
	return "stateless"
}

// DirReplPolicy selects the directory-cache replacement policy
// (tree-PLRU default; the future-work §VII policy as an ablation).
type DirReplPolicy uint8

// Directory replacement policies.
const (
	// DirReplPLRU is tree pseudo-LRU, the paper's default.
	DirReplPLRU DirReplPolicy = iota
	// DirReplFewestSharers prefers unmodified entries with the fewest
	// sharers, cascading to tree-PLRU among equals (§VII future work).
	DirReplFewestSharers
)

// Options configures the directory/LLC protocol variant. The zero value
// is the unmodified gem5 baseline.
type Options struct {
	// EarlyDirtyResponse enables §III-A: on a downgrading-probe
	// transaction, respond to the requester at the first dirty probe
	// acknowledgment instead of waiting for all acks and the memory read.
	EarlyDirtyResponse bool

	// NoWBCleanVicToMem enables §III-B: clean L2 victims are written to
	// the LLC only, not to memory.
	NoWBCleanVicToMem bool

	// NoWBCleanVicToLLC enables §III-B1: clean L2 victims are dropped
	// entirely (implies NoWBCleanVicToMem).
	NoWBCleanVicToLLC bool

	// LLCWriteBack enables §III-C: victims write only the LLC; a per-line
	// dirty bit defers the memory write until the LLC line is itself
	// victimized (implies NoWBCleanVicToMem for the memory write).
	LLCWriteBack bool

	// UseL3OnWT redirects TCC write-throughs and system-scope atomics to
	// the LLC (the gem5 useL3OnWT parameter). Without it they bypass the
	// LLC and write memory directly (the LLC copy is invalidated to stay
	// coherent).
	UseL3OnWT bool

	// Tracking selects the §IV directory organization.
	Tracking TrackingMode

	// DirRepl selects the directory-cache replacement policy.
	DirRepl DirReplPolicy

	// LimitedPointers bounds the sharer list (0 = full-map bitmap). When
	// the list overflows, invalidations fall back to broadcast for that
	// line (footnote b of Table I).
	LimitedPointers int

	// ReadOnlyElision enables the §IX future-work optimization: lines in
	// workload-declared read-only ranges are served without probes and
	// without directory tracking (see SetReadOnly).
	ReadOnlyElision bool

	// Recorder, when non-nil, receives every fired protocol transition
	// for the static-vs-dynamic cross-check (cmd/hscproto). The system
	// wires the same recorder into every controller; recording is
	// zero-cost when nil. The recorder is infrastructure, not a protocol
	// variant: Named() and the conformance matrix ignore it.
	Recorder *fsm.Recorder
}

// Named returns the configuration name used in the paper's figures.
func (o Options) Named() string {
	switch {
	case o.Tracking == TrackOwnerSharers:
		return "sharersTracking"
	case o.Tracking == TrackOwner:
		return "ownerTracking"
	case o.LLCWriteBack && o.UseL3OnWT:
		return "llcWB+useL3OnWT"
	case o.LLCWriteBack:
		return "llcWB"
	case o.NoWBCleanVicToLLC:
		return "noWBcleanVicLLC"
	case o.NoWBCleanVicToMem:
		return "noWBcleanVic"
	case o.EarlyDirtyResponse:
		return "earlyResp"
	}
	return "baseline"
}

// Timing configures directory and LLC access latencies (Table II).
type Timing struct {
	DirLatency sim.Tick // directory-cache access latency (20 cy)
	LLCLatency sim.Tick // LLC access latency (20 cy)
}

// DefaultTiming matches Table II.
func DefaultTiming() Timing { return Timing{DirLatency: 20, LLCLatency: 20} }

// Geometry sizes the LLC and directory cache (Table II).
type Geometry struct {
	LLCSizeBytes int // 16 MB
	LLCAssoc     int // 16
	DirEntries   int // 256 K entries (256 KB at ~1 B/entry)
	DirAssoc     int // 32
}

// DefaultGeometry matches Table II.
func DefaultGeometry() Geometry {
	return Geometry{
		LLCSizeBytes: 16 << 20,
		LLCAssoc:     16,
		DirEntries:   256 << 10,
		DirAssoc:     32,
	}
}

// Bank is the geometry of one of banks directory banks: the LLC and the
// directory cache split evenly over them.
func (g Geometry) Bank(banks int) Geometry {
	g.LLCSizeBytes /= banks
	g.DirEntries /= banks
	return g
}

// LLCArray is the LLC's tag-array geometry.
func (g Geometry) LLCArray() cachearray.Config {
	return cachearray.Config{SizeBytes: g.LLCSizeBytes, Assoc: g.LLCAssoc, BlockSize: cachearray.LineBytes}
}

// DirArray is the directory cache's tag-array geometry, at one byte per
// entry (Table II).
func (g Geometry) DirArray() cachearray.Config {
	return cachearray.Config{SizeBytes: g.DirEntries, Assoc: g.DirAssoc, BlockSize: 1}
}
