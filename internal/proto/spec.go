package proto

import (
	"sort"

	"hscsim/internal/core"
)

// MachineSpec is the handwritten ground truth for one controller state
// machine: its state/event/next-state domains and a justification for
// every (state, event) cell the controller can never observe. Every
// other cell is reachable (Reachable). The static check (check.go)
// holds the extracted table to this spec in both directions: every
// reachable cell handled, no handler for an impossible cell.
type MachineSpec struct {
	Name   string
	States []string
	Events []string
	Nexts  []string

	// Impossible justifies each cell of States×Events the controller
	// can never observe.
	Impossible map[Pair]string

	// CoverageExempt excuses declared transitions from the dynamic
	// firing requirement (coverage.go), with a justification. Exempt
	// transitions still appear in the table and are still reported by
	// name when unfired.
	CoverageExempt map[TKey]string
}

// Reachable returns the cells the controller can observe:
// States×Events minus Impossible, in declaration order.
func (s *MachineSpec) Reachable() []Pair {
	var out []Pair
	for _, st := range s.States {
		for _, ev := range s.Events {
			p := Pair{State: st, Event: ev}
			if _, ok := s.Impossible[p]; !ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// OptionSet converts core.Options to the option-name set guards are
// evaluated against. Its keys are the option names a //proto:when or
// //proto:unless clause may reference.
func OptionSet(o core.Options) map[string]bool {
	return map[string]bool{
		"EarlyDirtyResponse": o.EarlyDirtyResponse,
		"NoWBCleanVicToMem":  o.NoWBCleanVicToMem,
		"NoWBCleanVicToLLC":  o.NoWBCleanVicToLLC,
		"LLCWriteBack":       o.LLCWriteBack,
		"UseL3OnWT":          o.UseL3OnWT,
		"ReadOnlyElision":    o.ReadOnlyElision,
	}
}

// LLCOptionDeltas is the paper's per-optimization table delta for the
// LLC write-policy machine (dir.llc): enabling the option adds exactly
// these transitions. Only dir.llc may carry option guards at all —
// §III-A changes response timing, not the table, and §IV selects
// between dir.stateless and dir.tracked rather than gating transitions.
var LLCOptionDeltas = map[string][]TKey{
	// §III-C: victims and (with UseL3OnWT) write-throughs leave a dirty
	// LLC line instead of writing memory.
	"LLCWriteBack": {
		{State: "-", Event: "BackInval", Next: "llc-dirty"},
		{State: "-", Event: "VicClean", Next: "llc"},
		{State: "-", Event: "VicDirty", Next: "llc-dirty"},
		{State: "-", Event: "WT", Next: "llc-dirty"},
	},
	// §III-B: clean victims stop writing memory.
	"NoWBCleanVicToMem": {
		{State: "-", Event: "VicClean", Next: "llc"},
	},
	// §III-B1: clean victims are dropped entirely.
	"NoWBCleanVicToLLC": {
		{State: "-", Event: "VicClean", Next: "drop"},
	},
	// gem5's useL3OnWT: write-throughs land in the LLC.
	"UseL3OnWT": {
		{State: "-", Event: "WT", Next: "llc-dirty"},
		{State: "-", Event: "WT", Next: "llc+mem"},
	},
}

// LLCVariantTable is the expected active dir.llc transition set for
// one protocol variant — the per-variant table diff of the paper.
type LLCVariantTable struct {
	Opts   core.Options
	Active []TKey
}

// LLCVariantTables returns the expected dir.llc tables for the six
// paper variants (mirroring verify.Variants; a test cross-checks the
// two). §III-A (EarlyDirtyResponse) changes no table entries, so the
// first two variants are identical here.
func LLCVariantTables() []LLCVariantTable {
	baseline := []TKey{
		{State: "-", Event: "BackInval", Next: "llc+mem"},
		{State: "-", Event: "DMAWr", Next: "mem"},
		{State: "-", Event: "VicClean", Next: "llc+mem"},
		{State: "-", Event: "VicDirty", Next: "llc+mem"},
		{State: "-", Event: "WT", Next: "mem"},
	}
	noWBClean := []TKey{
		{State: "-", Event: "BackInval", Next: "llc+mem"},
		{State: "-", Event: "DMAWr", Next: "mem"},
		{State: "-", Event: "VicClean", Next: "drop"},
		{State: "-", Event: "VicDirty", Next: "llc+mem"},
		{State: "-", Event: "WT", Next: "mem"},
	}
	llcWBUseL3 := []TKey{
		{State: "-", Event: "BackInval", Next: "llc-dirty"},
		{State: "-", Event: "DMAWr", Next: "mem"},
		{State: "-", Event: "VicClean", Next: "llc"},
		{State: "-", Event: "VicDirty", Next: "llc-dirty"},
		{State: "-", Event: "WT", Next: "llc-dirty"},
	}
	// The tracking variants keep the write-back LLC but not useL3OnWT:
	// write-throughs bypass to memory.
	llcWBTracked := []TKey{
		{State: "-", Event: "BackInval", Next: "llc-dirty"},
		{State: "-", Event: "DMAWr", Next: "mem"},
		{State: "-", Event: "VicClean", Next: "llc"},
		{State: "-", Event: "VicDirty", Next: "llc-dirty"},
		{State: "-", Event: "WT", Next: "mem"},
	}
	return []LLCVariantTable{
		{core.Options{}, baseline},
		{core.Options{EarlyDirtyResponse: true}, baseline},
		{core.Options{EarlyDirtyResponse: true, NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true}, noWBClean},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, UseL3OnWT: true}, llcWBUseL3},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner}, llcWBTracked},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers}, llcWBTracked},
	}
}

// cells builds the (state, event) pairs of one state row.
func cells(state string, events ...string) []Pair {
	out := make([]Pair, len(events))
	for i, ev := range events {
		out[i] = Pair{State: state, Event: ev}
	}
	return out
}

func rows(rs ...[]Pair) []Pair {
	var out []Pair
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}

// impossible justifies each (state, event) in the list with one reason.
func impossible(m map[Pair]string, reason string, ps ...Pair) map[Pair]string {
	if m == nil {
		m = make(map[Pair]string)
	}
	for _, p := range ps {
		m[p] = reason
	}
	return m
}

// Specs returns the spec for every instrumented machine, sorted by
// name.
func Specs() []*MachineSpec {
	specs := []*MachineSpec{
		cpuL2Spec(),
		dmaSpec(),
		dirLLCSpec(),
		dirROSpec(),
		dirStatelessSpec(),
		dirTrackedSpec(),
		gpuTCCSpec(),
		gpuWaveSpec(),
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// SpecFor returns the named machine's spec, or nil.
func SpecFor(name string) *MachineSpec {
	for _, s := range Specs() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// cpuL2Spec is the MOESI CorePair L2 (internal/corepair). The "WB"
// pseudo-state is the victim buffer: the line left the array with a
// Vic* in flight and its WBAck pending.
func cpuL2Spec() *MachineSpec {
	s := &MachineSpec{
		Name:   "cpu.l2",
		States: []string{"I", "S", "E", "O", "M", "WB"},
		Events: []string{"Load", "Store", "Fill", "Evict", "WBAck", "PrbInv", "PrbDowngrade"},
		Nexts:  []string{"I", "S", "E", "O", "M", "WB"},
	}
	s.Impossible = impossible(s.Impossible,
		"invalid lines are never chosen as victims",
		Pair{State: "I", Event: "Evict"})
	s.Impossible = impossible(s.Impossible,
		"a WBAck always finds its victim-buffer entry: a re-fetch of the line stalls in WB until the ack drains",
		Pair{State: "I", Event: "WBAck"}, Pair{State: "S", Event: "WBAck"},
		Pair{State: "E", Event: "WBAck"}, Pair{State: "O", Event: "WBAck"},
		Pair{State: "M", Event: "WBAck"})
	s.Impossible = impossible(s.Impossible,
		"no miss can be outstanding for a line held Exclusive/Modified; upgrade fills start from S or O",
		Pair{State: "E", Event: "Fill"}, Pair{State: "M", Event: "Fill"})
	s.Impossible = impossible(s.Impossible,
		"accesses to a line with an outstanding victim stall before issuing a miss, so no fill can arrive in WB",
		Pair{State: "WB", Event: "Fill"})
	s.Impossible = impossible(s.Impossible,
		"the victim buffer is not part of the cache array; the line cannot be victimized twice",
		Pair{State: "WB", Event: "Evict"})
	return s
}

// gpuTCCSpec is the VIPER TCC (internal/gpucache): V/D line states plus
// "-" for the point-to-point completions that never consult line state.
func gpuTCCSpec() *MachineSpec {
	s := &MachineSpec{
		Name:   "gpu.tcc",
		States: []string{"I", "V", "D", "-"},
		Events: []string{"Rd", "Wr", "Fill", "Evict", "AtomicSys", "AtomicDev", "FlushWB", "Release", "PrbInv", "PrbDowngrade", "WBAck", "AtomicResp", "FlushAck"},
		Nexts:  []string{"I", "V", "D", "-"},
		CoverageExempt: map[TKey]string{
			// A fill can observe a valid or dirty line only when a write
			// allocated the line while the read miss was outstanding —
			// a same-line read/write race the workloads rarely produce.
			{State: "V", Event: "Fill", Next: "V"}: "needs a write allocating the line while a read miss is in flight",
			{State: "D", Event: "Fill", Next: "D"}: "needs a WB_L2 write allocating the line while a read miss is in flight",
		},
	}
	s.Impossible = impossible(s.Impossible,
		"the release fence and point-to-point completions never consult TCC line state; recorded state-independently under -",
		rows(
			cells("I", "Release", "WBAck", "AtomicResp", "FlushAck"),
			cells("V", "Release", "WBAck", "AtomicResp", "FlushAck"),
			cells("D", "Release", "WBAck", "AtomicResp", "FlushAck"),
		)...)
	s.Impossible = impossible(s.Impossible,
		"stateless downgrades go only to L2s, and tracked downgrades go only to the owner, which is never the TCC (its reads are forced Shared and it never issues RdBlkM)",
		Pair{State: "I", Event: "PrbDowngrade"}, Pair{State: "V", Event: "PrbDowngrade"},
		Pair{State: "D", Event: "PrbDowngrade"}, Pair{State: "-", Event: "PrbDowngrade"})
	s.Impossible = impossible(s.Impossible,
		"line-indexed events always observe a concrete line state",
		cells("-", "Rd", "Wr", "Fill", "Evict", "AtomicSys", "AtomicDev", "FlushWB", "PrbInv")...)
	s.Impossible = impossible(s.Impossible,
		"only valid lines are displaced by an insert",
		Pair{State: "I", Event: "Evict"})
	s.Impossible = impossible(s.Impossible,
		"the release flush only visits dirty lines",
		Pair{State: "I", Event: "FlushWB"}, Pair{State: "V", Event: "FlushWB"})
	return s
}

// gpuWaveSpec is the wavefront dispatch machine (internal/gpu): which
// cache-complex action each wave op kind triggers. Stateless.
func gpuWaveSpec() *MachineSpec {
	return &MachineSpec{
		Name:   "gpu.wave",
		States: []string{"-"},
		Events: []string{"VecLoad", "VecStore", "AtomicSys", "AtomicDev", "Barrier", "Compute"},
		Nexts:  []string{"-"},
	}
}

// dirStatelessSpec is the baseline broadcast directory's request
// dispatch (internal/core, beginStateless). Stateless by construction.
func dirStatelessSpec() *MachineSpec {
	return &MachineSpec{
		Name:   "dir.stateless",
		States: []string{"-"},
		Events: []string{"RdBlk", "RdBlkS", "RdBlkM", "VicDirty", "VicClean", "WT", "Atomic", "Flush", "DMARd", "DMAWr"},
		Nexts:  []string{"-"},
	}
}

// dirTrackedSpec is the §IV tracking directory (internal/core,
// tracked.go): I/S/O entry states per Table I, plus "-" for the
// state-independent release fence.
func dirTrackedSpec() *MachineSpec {
	reqEvents := []string{"RdBlk", "RdBlkS", "RdBlkM", "VicDirty", "VicClean", "WT", "Atomic", "DMARd", "DMAWr"}
	s := &MachineSpec{
		Name:   "dir.tracked",
		States: []string{"I", "S", "O", "-"},
		Events: []string{"RdBlk", "RdBlkS", "RdBlkM", "VicDirty", "VicClean", "WT", "Atomic", "Flush", "DMARd", "DMAWr"},
		Nexts:  []string{"I", "S", "O", "-"},
		CoverageExempt: map[TKey]string{
			// Superseded dirty victims need a VicDirty crossing an
			// ownership transfer; kept in the table for the race, but
			// the conformance workloads seldom line the two up.
			{State: "S", Event: "VicDirty", Next: "S"}: "needs a VicDirty crossing an ownership transfer that left the line S",
			{State: "O", Event: "VicDirty", Next: "O"}: "needs a VicDirty from a stale owner racing a new owner's RdBlkM",
			// Table I footnote g's sharers-remain branch: an entry only
			// holds sharers alongside an owner via the dirty-sharers path
			// (footnote h), which pins the owner's L2 line at M->O dirty —
			// so the owner's eventual victim is always VicDirty, never
			// VicClean. Kept as a defensive arm.
			{State: "O", Event: "VicClean", Next: "S"}: "sharers coexist with an owner only when the owner is dirty (fn. h), whose victim is VicDirty",
		},
	}
	s.Impossible = impossible(s.Impossible,
		"the release fence is line-state-independent; recorded under -",
		Pair{State: "I", Event: "Flush"}, Pair{State: "S", Event: "Flush"},
		Pair{State: "O", Event: "Flush"})
	s.Impossible = impossible(s.Impossible,
		"every other request consults the directory entry state",
		cells("-", reqEvents...)...)
	return s
}

// dirLLCSpec is the LLC write-policy machine (internal/core): what each
// write-class event leaves in the LLC and memory. The next-state column
// encodes the policy outcome, not a cache state: drop, llc (clean LLC
// line only), llc+mem (write-through), llc-dirty (deferred memory
// write), mem (memory only).
func dirLLCSpec() *MachineSpec {
	return &MachineSpec{
		Name:   "dir.llc",
		States: []string{"-"},
		Events: []string{"VicDirty", "VicClean", "WT", "DMAWr", "BackInval"},
		Nexts:  []string{"drop", "llc", "llc+mem", "llc-dirty", "mem"},
	}
}

// dirROSpec is the §IX read-only elision path (internal/core,
// readonly.go): requests to declared read-only lines, served with no
// probes and no tracking. Write-class requests panic instead of
// transitioning, so they have no cell here.
func dirROSpec() *MachineSpec {
	return &MachineSpec{
		Name:   "dir.ro",
		States: []string{"-"},
		Events: []string{"RdBlk", "RdBlkS", "DMARd", "VicClean"},
		Nexts:  []string{"-"},
	}
}

// dmaSpec is the DMA engine (internal/dma). It caches nothing, so all
// events are state-independent.
func dmaSpec() *MachineSpec {
	return &MachineSpec{
		Name:   "dma.engine",
		States: []string{"-"},
		Events: []string{"Rd", "Wr", "Resp", "WBAck"},
		Nexts:  []string{"-"},
	}
}
