package verify

import (
	"fmt"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/noc"
)

// Config selects what the model checker explores.
type Config struct {
	Opts     core.Options
	Scenario Scenario
	// Mutate, when non-nil, rewrites (or drops, by returning false)
	// every message at delivery time. Used by negative tests to seed
	// protocol bugs the checker must catch. It MUST be a pure function
	// of the message: the stateless search re-executes action prefixes
	// from scratch, so a mutator that keeps state across calls would
	// make replays diverge from the runs that discovered them.
	Mutate noc.Mutator
	// MaxStates bounds exploration (0 = the package default). Hitting
	// the bound sets Result.Truncated rather than failing.
	MaxStates int
}

// Violation is a checker counterexample: the failed invariant plus the
// exact scheduling path that reproduces it.
type Violation struct {
	Err   *core.ProtocolViolation
	Trace []string // human-readable action sequence from the initial state
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\ntrace (%d scheduling choices):\n", v.Err, len(v.Trace))
	for i, step := range v.Trace {
		fmt.Fprintf(&b, "  %3d. %s\n", i+1, step)
	}
	return b.String()
}

// Result summarizes one exhaustive run.
type Result struct {
	States    int // distinct states visited
	Paths     int // complete executions reaching quiescence
	Truncated bool
	Violation *Violation // nil when every interleaving is clean
}

const (
	defaultMaxStates = 200000
	// drainBudget bounds the engine events executed after each
	// scheduling choice; exhausting it with nothing buffered to unblock
	// progress is reported as a livelock.
	drainBudget = 1024
)

// Run explores every interleaving of message deliveries, memory
// completions and agent issue points for the scenario under the given
// protocol options, checking the coherence invariants (CheckLine), the
// data-value invariant, and deadlock/livelock freedom. It is a stateless
// (replay-based) search: each DFS node is reached by re-executing its
// action path from the initial state, so the simulator itself never
// needs checkpointing; a fingerprint set prunes revisits.
func Run(cfg Config) Result {
	c := &checker{cfg: cfg, visited: make(map[string]struct{})}
	if c.cfg.MaxStates == 0 {
		c.cfg.MaxStates = defaultMaxStates
	}
	c.dfs(nil)
	return c.result
}

type checker struct {
	cfg     Config
	visited map[string]struct{}
	result  Result
}

// replay builds a fresh harness and re-executes the action path.
// Returns nil if a violation fired mid-path (already recorded).
func (c *checker) replay(path []int) *harness {
	h := newHarness(c.cfg.Opts, c.cfg.Scenario, c.cfg.Mutate)
	h.drain()
	for _, ai := range path {
		acts := h.enabled()
		h.perform(acts[ai])
		if h.violation != nil {
			c.fail(h, path, nil)
			return nil
		}
	}
	return h
}

// fail records the first violation found, with its trace.
func (c *checker) fail(h *harness, path []int, extra *core.ProtocolViolation) {
	v := h.violation
	if v == nil {
		v = extra
	}
	if v == nil || c.result.Violation != nil {
		return
	}
	c.result.Violation = &Violation{Err: v, Trace: c.trace(path)}
}

// trace re-executes the path once more purely to render each action.
func (c *checker) trace(path []int) []string {
	h := newHarness(c.cfg.Opts, c.cfg.Scenario, c.cfg.Mutate)
	h.drain()
	out := make([]string, 0, len(path))
	for _, ai := range path {
		acts := h.enabled()
		if ai >= len(acts) || h.violation != nil {
			out = append(out, "<replay diverged>")
			return out
		}
		out = append(out, h.describe(acts[ai]))
		h.perform(acts[ai])
	}
	return out
}

func (c *checker) dfs(path []int) {
	if c.result.Violation != nil {
		return
	}
	if c.result.States >= c.cfg.MaxStates {
		c.result.Truncated = true
		return
	}
	h := c.replay(path)
	if h == nil {
		return
	}
	fp := h.fingerprint()
	if _, seen := c.visited[fp]; seen {
		return
	}
	c.visited[fp] = struct{}{}
	c.result.States++

	acts := h.enabled()
	if len(acts) == 0 {
		// Quiescent leaf: all agents must have finished and the
		// directory must be idle, else the schedule deadlocked.
		if !h.allDone() {
			c.fail(h, path, &core.ProtocolViolation{
				Rule:  "deadlock",
				Cycle: h.engine.Now(),
				Detail: fmt.Sprintf("no deliverable message, memory completion or issuable op, but agents are incomplete: %s",
					h.progress()),
			})
			return
		}
		if !h.dir.Idle() {
			c.fail(h, path, &core.ProtocolViolation{
				Rule:   "leak",
				Cycle:  h.engine.Now(),
				Detail: "all agents finished but the directory still holds live transactions or pended requests",
			})
			return
		}
		if v := h.oracle.CheckFinal(); v != nil {
			c.fail(h, path, v)
			return
		}
		c.result.Paths++
		return
	}
	for i := range acts {
		next := make([]int, len(path)+1)
		copy(next, path)
		next[len(path)] = i
		c.dfs(next)
		if c.result.Violation != nil {
			return
		}
	}
}

// progress reports per-agent completion for deadlock messages.
func (h *harness) progress() string {
	parts := make([]string, len(h.agents))
	for i, ag := range h.agents {
		parts[i] = fmt.Sprintf("%s %d/%d ops (inflight=%t)", ag.name, ag.next, len(ag.ops), ag.inflight)
	}
	return strings.Join(parts, ", ")
}

// Variants returns the six protocol configurations from the paper that
// the checker sweeps: the stateless baseline, each incremental
// optimisation (§III), and both tracking directories (§IV).
func Variants() []core.Options {
	return []core.Options{
		{},
		{EarlyDirtyResponse: true},
		{EarlyDirtyResponse: true, NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
		{EarlyDirtyResponse: true, LLCWriteBack: true, UseL3OnWT: true},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
	}
}

// Scenarios returns the standard positive-sweep workloads. Lines
// 0x10 and 0x12 map to the same set of every (direct-mapped, two-set)
// array in the harness, so scenarios touching both exercise victim and
// directory-eviction races.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:  "single-line-contention",
			Lines: lines(0x10),
			CPU0:  ops(Store, 0x10, Load, 0x10),
			CPU1:  ops(Store, 0x10, Load, 0x10),
			GPU:   ops(Store, 0x10, Load, 0x10),
		},
		{
			Name:  "producer-consumer",
			Lines: lines(0x10, 0x11),
			CPU0:  ops(Store, 0x10, Store, 0x11),
			CPU1:  ops(Load, 0x11, Load, 0x10),
			GPU:   ops(Load, 0x10),
		},
		{
			Name:  "victim-race",
			Lines: lines(0x10, 0x12),
			CPU0:  ops(Store, 0x10, Store, 0x12, Load, 0x10),
			CPU1:  ops(Load, 0x10, Store, 0x12),
		},
		{
			Name:  "atomic-mix",
			Lines: lines(0x10),
			CPU0:  ops(Atomic, 0x10, Load, 0x10),
			CPU1:  ops(Store, 0x10),
			GPU:   ops(Atomic, 0x10),
		},
		{
			Name:       "dir-pressure",
			Lines:      lines(0x10, 0x12),
			CPU0:       ops(Store, 0x10, Load, 0x12),
			CPU1:       ops(Store, 0x12, Load, 0x10),
			GPU:        ops(Load, 0x10),
			DirEntries: 2,
		},
	}
}

// DMAScenarios returns the DMA-agent sweeps: DMARd/DMAWr interleaved
// with CPU stores (the ROADMAP open item). The oracle models DMA-write
// commits at WBAck delivery, so every interleaving of probe traffic
// against the uncached DMA stream is checked.
func DMAScenarios() []Scenario {
	return []Scenario{
		{
			// A DMA read racing CPU stores must observe probe-cleaned
			// data and leave the dirty owner's state intact.
			Name:  "dma-read-vs-stores",
			Lines: lines(0x10),
			CPU0:  ops(Store, 0x10, Store, 0x10),
			CPU1:  ops(Load, 0x10),
			DMA:   ops(Load, 0x10),
		},
		{
			// A DMA write must invalidate every cached copy before it
			// commits; the trailing CPU load must see a fresh fill.
			Name:  "dma-write-vs-stores",
			Lines: lines(0x10),
			CPU0:  ops(Store, 0x10, Load, 0x10),
			CPU1:  ops(Store, 0x10),
			DMA:   ops(Store, 0x10),
		},
		{
			// Back-to-back DMA write then read across two conflicting
			// lines, racing a CPU victim (0x10 and 0x12 share a set).
			Name:  "dma-stream-victim-race",
			Lines: lines(0x10, 0x12),
			CPU0:  ops(Store, 0x10, Store, 0x12),
			DMA:   ops(Store, 0x10, Load, 0x12),
		},
	}
}

func lines(ls ...uint64) []cachearray.LineAddr {
	out := make([]cachearray.LineAddr, len(ls))
	for i, l := range ls {
		out[i] = cachearray.LineAddr(l)
	}
	return out
}

// ops builds a program from (kind, line) pairs.
func ops(kv ...interface{}) []AgentOp {
	if len(kv)%2 != 0 {
		panic("verify: ops wants (kind, line) pairs")
	}
	out := make([]AgentOp, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, AgentOp{kv[i].(OpKind), cachearray.LineAddr(kv[i+1].(int))})
	}
	return out
}
