package protocheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hscsim/internal/core"
	"hscsim/internal/proto"
)

// The composite-state reachability checker: frontier-parallel
// breadth-first exploration of the abstract one-line model from the
// quiescent state, checking the coherence invariants (verify.CheckLine)
// on every reachable state. Violations come with a minimal abstract
// trace (BFS level order gives shortest-path counterexamples).
//
// Parallel structure: the BFS is level-synchronized. Each level, the
// frontier is split into chunks and a worker pool expands them
// concurrently — the visited map is read-only during expansion, so
// workers dedup against it without locks and emit candidate discoveries
// per chunk. A single merge step then inserts candidates in chunk
// order, which keeps state ids, parent links and violation selection
// bit-for-bit deterministic regardless of worker scheduling. States are
// keyed by fixed-size packed arrays (canon.go) rather than strings, and
// the two symmetric L2 agents are canonicalized before hashing, which
// roughly halves the visited set (CrossCheckSymmetry proves the
// reduction exact).
//
// The exploration retains its parent links and key table, so the
// liveness prover (live.go) can walk the same graph without re-running
// the BFS.

// DefaultStateLimit bounds exploration; the real model stays far below
// it, so hitting the limit means a runaway model change. Unreduced
// (NoSym) explorations get twice the budget: dropping the ~2× symmetry
// reduction legitimately doubles the state count.
const DefaultStateLimit = 4_000_000

// ExploreOpts tunes one exploration.
type ExploreOpts struct {
	Limit   int  // state budget per configuration (0 = DefaultStateLimit)
	Workers int  // frontier-expansion workers (0 = GOMAXPROCS)
	NoSym   bool // disable the agent-permutation symmetry reduction
	// Progress, when non-nil, is called once per BFS level from the
	// exploring goroutine.
	Progress func(ProgressInfo)
}

func (o ExploreOpts) limit() int {
	if o.Limit > 0 {
		return o.Limit
	}
	if o.NoSym {
		return 2 * DefaultStateLimit
	}
	return DefaultStateLimit
}

func (o ExploreOpts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ProgressInfo is one per-level progress report.
type ProgressInfo struct {
	Config   ModelConfig
	Depth    int     // BFS depth of the level just merged
	States   int     // states discovered so far
	Frontier int     // size of the next frontier
	Rate     float64 // states discovered per second since exploration began
}

// ConfigFor maps a concrete variant's options onto the abstract model.
// The LLC placement options act below the protocol abstraction (they
// move committed data between LLC and memory but change no messages,
// probes or grants), so only tracking mode and EDR remain.
func ConfigFor(o core.Options) ModelConfig {
	cfg := ModelConfig{EDR: o.EarlyDirtyResponse}
	switch o.Tracking {
	case core.TrackOwner:
		cfg.Mode = ModeTrackOwner
	case core.TrackOwnerSharers:
		cfg.Mode = ModeTrackOwnerSharers
	}
	return cfg
}

// Configs returns the four abstract configurations that cover the
// paper's six variants (plus the no-EDR tracked modes for coverage).
func Configs() []ModelConfig {
	return []ModelConfig{
		{Mode: ModeStateless},
		{Mode: ModeStateless, EDR: true},
		{Mode: ModeTrackOwner, EDR: true},
		{Mode: ModeTrackOwnerSharers, EDR: true},
	}
}

// TraceStep is one hop of a counterexample trace.
type TraceStep struct {
	Desc  string // what happened
	Arm   string // the table arm animated ("" for synthetic steps)
	State string // resulting composite state
}

// Violation is a safety violation with its shortest abstract witness.
type Violation struct {
	Config   ModelConfig
	State    string
	Problems []string
	Trace    []TraceStep
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] unsafe state: %s\n", v.Config, v.State)
	for _, p := range v.Problems {
		fmt.Fprintf(&b, "  violates: %s\n", p)
	}
	fmt.Fprintf(&b, "  trace (%d steps from quiescent):\n", len(v.Trace))
	for i, t := range v.Trace {
		arm := ""
		if t.Arm != "" {
			arm = " [" + t.Arm + "]"
		}
		fmt.Fprintf(&b, "  %3d. %s%s\n       → %s\n", i+1, t.Desc, arm, t.State)
	}
	return b.String()
}

// ReachResult is the outcome of exploring one abstract configuration.
type ReachResult struct {
	Config    ModelConfig
	States    int             // reachable composite states
	Depth     int             // BFS depth of the deepest state
	Elapsed   time.Duration   // wall time of the exploration
	ArmsUsed  map[armRef]bool // table arms animated by some reachable step
	Stable    map[skey]string // reachable quiescent states: canonical key → rendering
	Violation *Violation      // nil when every reachable state is safe

	exp *explorer // retained graph for the liveness pass
}

// explorer holds the exploration graph: packed state keys indexed by
// discovery order, the visited map, and per-state parent links. A
// state's trace is reconstructed by re-running successors() along the
// parent chain and indexing with the stored successor ordinal, so no
// per-state description strings are retained.
type explorer struct {
	cfg     ModelConfig
	sym     bool
	workers int
	keys    []skey         // id → packed state
	ids     map[skey]int32 // packed state → id
	parent  []int32        // id → predecessor id (-1 for the initial state)
	ord     []uint16       // id → successor ordinal within successors(parent)
}

// canonize applies the symmetry reduction when it is enabled.
func (ex *explorer) canonize(s state) state {
	if ex.sym {
		return s.canon()
	}
	return s
}

// trace rebuilds the shortest path from the initial state to id.
func (ex *explorer) trace(id int32) []TraceStep {
	var rev []TraceStep
	for id > 0 {
		p := ex.parent[id]
		succs := successors(unpack(ex.keys[p]), ex.cfg)
		nx := succs[ex.ord[id]]
		arm := ""
		if nx.arm.Machine != "" {
			arm = nx.arm.String()
		}
		rev = append(rev, TraceStep{Desc: nx.desc, Arm: arm, State: unpack(ex.keys[id]).String()})
		id = p
	}
	out := make([]TraceStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// cand is one candidate discovery emitted by a worker: the frontier
// state at frontier position pos took its successor number ord into
// key. Candidates are merged in (chunk, emission) order, so the ids
// they receive are deterministic.
type cand struct {
	pos int32
	ord uint16
	key skey
}

// chunkOut is one worker chunk's result.
type chunkOut struct {
	cands []cand
	arms  map[armRef]bool
	viol  int32    // frontier position of the first violating state, -1 if none
	probs []string // its violations
}

// Explore runs the frontier-parallel BFS over the abstract model for
// one configuration, stopping at the first violation (with its
// shortest trace) or when the reachable set is exhausted.
func Explore(cfg ModelConfig, opts ExploreOpts) (*ReachResult, error) {
	start := time.Now()
	limit, workers := opts.limit(), opts.workers()

	ex := &explorer{
		cfg: cfg, sym: !opts.NoSym, workers: workers,
		ids: make(map[skey]int32, 1<<16),
	}
	res := &ReachResult{
		Config:   cfg,
		ArmsUsed: make(map[armRef]bool),
		Stable:   make(map[skey]string),
		exp:      ex,
	}

	s0 := ex.canonize(initial())
	k0 := pack(s0)
	ex.ids[k0] = 0
	ex.keys = append(ex.keys, k0)
	ex.parent = append(ex.parent, -1)
	ex.ord = append(ex.ord, 0)
	res.Stable[k0] = s0.String()

	frontier := []int32{0}
	for depth := 0; len(frontier) > 0; depth++ {
		outs := ex.expandLevel(frontier)

		// Violation selection is deterministic: the first violating
		// state in frontier order wins, regardless of which worker
		// found it.
		var viol *chunkOut
		for i := range outs {
			o := &outs[i]
			for ref := range o.arms { //hsclint:deterministic — accumulated into a set
				res.ArmsUsed[ref] = true
			}
			if o.viol >= 0 && viol == nil {
				viol = o
			}
		}
		if viol != nil {
			id := frontier[viol.viol]
			res.Violation = &Violation{
				Config:   cfg,
				State:    unpack(ex.keys[id]).String(),
				Problems: sortedStrings(viol.probs),
				Trace:    ex.trace(id),
			}
			res.States = len(ex.keys)
			res.Depth = depth
			res.Elapsed = time.Since(start)
			return res, nil
		}

		// Merge: insert candidates in (chunk, emission) order.
		var next []int32
		for i := range outs {
			for _, c := range outs[i].cands {
				if _, ok := ex.ids[c.key]; ok {
					continue
				}
				if len(ex.keys) >= limit {
					return nil, fmt.Errorf("state budget exceeded (%d states) exploring %s", limit, cfg)
				}
				id := int32(len(ex.keys))
				ex.ids[c.key] = id
				ex.keys = append(ex.keys, c.key)
				ex.parent = append(ex.parent, frontier[c.pos])
				ex.ord = append(ex.ord, c.ord)
				next = append(next, id)
				if s := unpack(c.key); s.stable() {
					res.Stable[c.key] = s.String()
				}
			}
		}
		frontier = next
		res.Depth = depth
		if opts.Progress != nil {
			opts.Progress(ProgressInfo{
				Config: cfg, Depth: depth,
				States: len(ex.keys), Frontier: len(frontier),
				Rate: float64(len(ex.keys)) / time.Since(start).Seconds(),
			})
		}
	}
	res.States = len(ex.keys)
	res.Elapsed = time.Since(start)
	return res, nil
}

// expandLevel splits the frontier into chunks and expands them on the
// worker pool. The visited map is read-only for the whole level, so
// workers need no locks; each chunk's discoveries and violations come
// back in emission order.
func (ex *explorer) expandLevel(frontier []int32) []chunkOut {
	chunkSize := len(frontier)/(ex.workers*4) + 1
	if chunkSize > 4096 {
		chunkSize = 4096
	}
	nchunks := (len(frontier) + chunkSize - 1) / chunkSize
	outs := make([]chunkOut, nchunks)

	var cursor int64
	var wg sync.WaitGroup
	nw := ex.workers
	if nw > nchunks {
		nw = nchunks
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1)) - 1
				if i >= nchunks {
					return
				}
				lo := i * chunkSize
				hi := lo + chunkSize
				if hi > len(frontier) {
					hi = len(frontier)
				}
				outs[i] = ex.expandChunk(frontier, int32(lo), int32(hi))
			}
		}()
	}
	wg.Wait()
	return outs
}

// expandChunk processes frontier[lo:hi): checks the safety invariants
// on each state and emits its undiscovered successors.
func (ex *explorer) expandChunk(frontier []int32, lo, hi int32) chunkOut {
	out := chunkOut{viol: -1, arms: make(map[armRef]bool)}
	var buf []succ
	for pos := lo; pos < hi; pos++ {
		id := frontier[pos]
		key := ex.keys[id]
		s := unpack(key)

		if probs := s.violations(ex.cfg); len(probs) > 0 {
			out.viol, out.probs = pos, probs
			return out
		}

		buf = successorsInto(buf, s, ex.cfg)
		succs := buf
		if len(succs) > 1<<16-1 {
			panic("model bug: successor ordinal overflows uint16")
		}
		for i, nx := range succs {
			if nx.arm.Machine != "" && !out.arms[nx.arm] {
				out.arms[nx.arm] = true
			}
			if nx.s == s {
				continue // self-loop (hit, stall, release fence): recorded for coverage only
			}
			ns := ex.canonize(nx.s)
			nk := pack(ns)
			if nk == key {
				continue // a self-loop up to symmetry
			}
			if _, ok := ex.ids[nk]; ok {
				continue
			}
			ns.assertStructure()
			out.cands = append(out.cands, cand{pos: pos, ord: uint16(i), key: nk})
		}
	}
	return out
}

// CheckReach explores every configuration concurrently and reports
// violations as findings (with the trace inlined into the detail).
func CheckReach(opts ExploreOpts) ([]Finding, []*ReachResult, error) {
	cfgs := Configs()
	results := make([]*ReachResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Explore(cfgs[i], opts)
		}(i)
	}
	wg.Wait()
	var findings []Finding
	for i, err := range errs {
		if err != nil {
			return nil, nil, err
		}
		if r := results[i]; r.Violation != nil {
			findings = append(findings, Finding{
				Analysis: "reach",
				Machine:  r.Config.String(),
				Detail:   r.Violation.String(),
			})
		}
	}
	return findings, results, nil
}

// ---------------------------------------------------------------------
// Two-way arm cross-check: the abstract model and the extracted tables
// must tell the same story.

// modeledMachines are the controllers the one-line model animates.
// dir.llc and dir.ro are data-placement policies below the protocol
// abstraction; gpu.wave drives the TCC but touches no line state.
var modeledMachines = map[string]bool{
	machL2:        true,
	machTCC:       true,
	machDMA:       true,
	machStateless: true,
	machTracked:   true,
}

// excludedArm reports table arms outside the model's scope, with the
// reason: the write-back TCC (WB_L2 mode, dirty 'D' state) is not part
// of the paper's six verified variants.
func excludedArm(machine string, key proto.TKey) (string, bool) {
	if machine == machTCC && (key.State == "D" || key.Next == "D") {
		return "write-back TCC (WB_L2 mode) is outside the modeled variants", true
	}
	return "", false
}

// expectedUncovered lists table arms of modeled machines that the
// abstract model provably cannot animate, each with the reachability
// argument. The cross-check fails if this list drifts out of date in
// either direction.
var expectedUncovered = map[armRef]string{
	{Machine: machTracked, Key: proto.TKey{State: "O", Event: "VicClean", Next: "S"}}: "an O entry gains sharers only via the dirty-ack path (owner was Modified), and nothing cleans the owner's copy while it stays tracked owner with sharers — so an owner VicClean always finds an empty sharer set",
	{Machine: machTracked, Key: proto.TKey{State: "O", Event: "WT", Next: "I"}}:       "a WT deallocates the entry only when Retain is false, and Retain=false WTs are emitted only by the write-back TCC's dirty flush paths (WB_L2 mode) — every write-through WT retains",
	{Machine: machTracked, Key: proto.TKey{State: "S", Event: "WT", Next: "I"}}:       "a WT deallocates the entry only when Retain is false, and Retain=false WTs are emitted only by the write-back TCC's dirty flush paths (WB_L2 mode) — every write-through WT retains",
}

// CrossCheckArms verifies containment both ways between the union of
// arms the model animated (across results) and the extracted table.
func CrossCheckArms(t *proto.Table, results []*ReachResult) []Finding {
	var findings []Finding
	bad := func(machine, format string, args ...interface{}) {
		findings = append(findings, Finding{
			Analysis: "reach", Machine: machine, Detail: fmt.Sprintf(format, args...),
		})
	}

	used := make(map[armRef]bool)
	for _, r := range results {
		for ref := range r.ArmsUsed { //hsclint:deterministic — accumulated into a set
			used[ref] = true
		}
	}

	// Model → table: every arm the model animates must exist.
	tableArms := make(map[armRef]bool)
	for _, m := range t.Machines {
		for _, e := range m.Entries {
			tableArms[armRef{Machine: m.Name, Key: e.TKey}] = true
		}
	}
	var usedList []armRef
	for ref := range used { //hsclint:deterministic — sorted below
		usedList = append(usedList, ref)
	}
	sort.Slice(usedList, func(i, j int) bool { return usedList[i].String() < usedList[j].String() })
	for _, ref := range usedList {
		if !tableArms[ref] {
			bad(ref.Machine, "model animates %s but the extracted table has no such arm", ref)
		}
	}

	// Table → model: every arm of a modeled machine must be animated,
	// excluded with a reason, or on the documented uncoverable list.
	for _, m := range t.Machines {
		if !modeledMachines[m.Name] {
			continue
		}
		for _, e := range m.Entries {
			ref := armRef{Machine: m.Name, Key: e.TKey}
			if _, ok := excludedArm(m.Name, e.TKey); ok {
				continue
			}
			why, expect := expectedUncovered[ref]
			if used[ref] {
				if expect {
					bad(m.Name, "stale expectedUncovered entry: the model now animates %s (%s)", ref, why)
				}
				continue
			}
			if !expect {
				bad(m.Name, "table arm %s is never animated by the abstract model", ref)
			}
		}
	}
	// And no dangling expectedUncovered refs for arms that left the table.
	var expList []armRef
	for ref := range expectedUncovered { //hsclint:deterministic — sorted below
		expList = append(expList, ref)
	}
	sort.Slice(expList, func(i, j int) bool { return expList[i].String() < expList[j].String() })
	for _, ref := range expList {
		if !tableArms[ref] {
			bad(ref.Machine, "expectedUncovered references %s, which is no longer in the table", ref)
		}
	}
	return findings
}

// Summarize renders per-config exploration stats for the CLI.
func Summarize(results []*ReachResult) string {
	var b strings.Builder
	for _, r := range results {
		verdict := "safe"
		if r.Violation != nil {
			verdict = "UNSAFE"
		}
		rate := ""
		if secs := r.Elapsed.Seconds(); secs > 0 {
			rate = fmt.Sprintf("%7.0fk st/s", float64(r.States)/secs/1000)
		}
		fmt.Fprintf(&b, "  %-26s %8d states  depth %3d  %4d arms  %8s %s  %s\n",
			r.Config, r.States, r.Depth, len(r.ArmsUsed),
			r.Elapsed.Round(time.Millisecond), rate, verdict)
	}
	return b.String()
}
