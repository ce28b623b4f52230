package protocheck

import (
	"bytes"
	"fmt"
	"sort"

	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
	"hscsim/internal/sim"
	"hscsim/internal/system"
)

// Observer links the static reachability proof to the real controllers:
// it watches a running two-CorePair system, and at every quiescent
// moment of a line — no directory transaction, no outstanding miss, no
// live victim buffer, no pending TCC write or DMA block — projects the
// line's composite state into the abstract model's state space.
// Contained then asserts observed ⊆ statically-reachable: any concrete
// behaviour that escapes the verified abstract state space is reported.
//
// The projection only fires on quiescent lines, so every in-flight
// completion ack is already drained and the projected state lands in
// the model's stable subset (state.stable); the model's folding of
// completion-ack delivery into the respond step is therefore invisible
// to the observer, as required for soundness.
type Observer struct {
	sys      *system.System
	cfg      ModelConfig
	observed map[skey]string // canonical stable key → rendering
	samples  int             // quiescent projections taken
	skipped  int             // deliveries on non-quiescent lines
}

// NewObserver attaches an observer to a freshly built system via its
// interconnect delivery hook. The system must have exactly two
// CorePairs (matching the abstract model's two agents) and must not run
// the runtime oracle, which claims the same hook.
func NewObserver(sys *system.System) (*Observer, error) {
	if len(sys.CorePairs) != 2 {
		return nil, fmt.Errorf("containment observer needs exactly 2 CorePairs (the abstract model's agent count), got %d", len(sys.CorePairs))
	}
	if sys.Cfg.Oracle {
		return nil, fmt.Errorf("containment observer and the runtime oracle both need the delivery hook; disable Config.Oracle")
	}
	o := &Observer{
		sys:      sys,
		cfg:      ConfigFor(sys.Cfg.Protocol),
		observed: make(map[skey]string),
	}
	sys.IC.SetDeliveryHook(o.onDeliver)
	return o, nil
}

// Config returns the abstract configuration the observed system maps to.
func (o *Observer) Config() ModelConfig { return o.cfg }

// Stats reports distinct observed states, total quiescent samples, and
// deliveries skipped because the line was mid-transaction.
func (o *Observer) Stats() (states, samples, skipped int) {
	return len(o.observed), o.samples, o.skipped
}

func (o *Observer) onDeliver(_ sim.Tick, m msg.Message) {
	line := m.Addr
	if !o.quiescent(line) {
		o.skipped++
		return
	}
	s := o.project(line)
	o.samples++
	k := pack(s)
	if _, ok := o.observed[k]; !ok {
		o.observed[k] = s.String()
	}
}

// quiescent reports whether nothing protocol-visible is in flight for
// the line anywhere in the system.
func (o *Observer) quiescent(line cachearray.LineAddr) bool {
	if o.sys.BankFor(line).LineBusy(line) {
		return false
	}
	for _, cp := range o.sys.CorePairs {
		if _, miss := cp.MissType(line); miss {
			return false
		}
		if present, _ := cp.WBState(line); present {
			return false
		}
		if cp.WBWaiters(line) > 0 {
			return false
		}
	}
	if g := o.sys.GPUCaches; g != nil {
		mshr, wts, atomics := g.PendingLine(line)
		if mshr+wts+atomics > 0 {
			return false
		}
	}
	if d := o.sys.DMA; d != nil {
		rd, wr := d.Pending(line)
		if rd+wr > 0 {
			return false
		}
	}
	return true
}

// project snapshots a quiescent line into the abstract state space.
func (o *Observer) project(line cachearray.LineAddr) state {
	s := initial()
	entrySt, owner, sharers := o.sys.BankFor(line).EntryState(line)
	switch entrySt {
	case "S":
		s.Dir.Entry = 'S'
	case "O":
		s.Dir.Entry = 'O'
	}
	for i, cp := range o.sys.CorePairs {
		s.Ag[i].Cache = cp.L2State(line).String()[0]
		if s.Dir.Entry != '-' {
			s.Ag[i].Own = s.Dir.Entry == 'O' && owner == i
			s.Ag[i].Shr = sharers&(1<<uint(i)) != 0
		}
	}
	if g := o.sys.GPUCaches; g != nil && g.TCCHas(line) {
		s.TCC.Cache = 'V'
	}
	// TCC sharer bits sit above the CorePair indices in probe-target
	// order (directory targets = L2s then TCC banks).
	if s.Dir.Entry != '-' {
		s.TCC.Shr = sharers>>uint(len(o.sys.CorePairs)) != 0
	}
	return s.canon()
}

// Contained checks every observed state for membership in the given
// exploration's stable reachable set, returning a finding per escapee.
func (o *Observer) Contained(r *ReachResult) []Finding {
	var findings []Finding
	if r.Config != o.cfg {
		findings = append(findings, Finding{
			Analysis: "contain",
			Machine:  o.cfg.String(),
			Detail:   fmt.Sprintf("exploration is for %s but the observed system maps to %s", r.Config, o.cfg),
		})
		return findings
	}
	var keys []skey
	for k := range o.observed { //hsclint:deterministic — sorted below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return bytes.Compare(keys[i][:], keys[j][:]) < 0
	})
	for _, k := range keys {
		if _, ok := r.Stable[k]; !ok {
			findings = append(findings, Finding{
				Analysis: "contain",
				Machine:  o.cfg.String(),
				Detail: fmt.Sprintf("observed composite state is not statically reachable: %s",
					o.observed[k]),
			})
		}
	}
	return findings
}
