package protocheck

import (
	"fmt"

	"hscsim/internal/proto"
)

// Machine names as recorded in the transition tables.
const (
	machL2        = "cpu.l2"
	machTCC       = "gpu.tcc"
	machDMA       = "dma.engine"
	machStateless = "dir.stateless"
	machTracked   = "dir.tracked"
)

// edgeKind classifies each abstract transition for the liveness check
// (live.go). Progress moves consume or advance in-flight work:
// activations, probe and response deliveries, ack collection,
// completions. Inject moves introduce new work — a core issuing an
// access, an eviction, a DMA or TCC request, directory-cache pressure,
// or a saturated counter re-asserting "at least one more message" —
// and are attributed to the environment: weak fairness promises that
// pending work completes, not that the environment ever goes quiet, so
// the drain graph the liveness prover walks keeps only progress moves.
type edgeKind uint8

// Edge kinds.
const (
	kindProgress edgeKind = iota
	kindInject
)

// succ is one abstract transition: the next state, the transition-table
// arm it animates (zero — empty Machine — for synthetic steps:
// probe-ack collection, activations, back-invalidations, the un-tabled
// GPU Flush issue), its liveness classification, and a human-readable
// description for counterexample traces. The arm is held by value: the
// explorer materializes every successor of every reachable state, and
// a heap allocation per arm was a measurable share of exploration time.
type succ struct {
	s    state
	arm  armRef
	kind edgeKind
	desc string
}

type stepper struct {
	out []succ
}

func (sp *stepper) add(next state, desc string) {
	sp.out = append(sp.out, succ{s: next, desc: desc})
}

func (sp *stepper) addArm(next state, machine, st, ev, nx, desc string) {
	ref := armRef{Machine: machine, Key: proto.TKey{State: st, Event: ev, Next: nx}}
	sp.out = append(sp.out, succ{s: next, arm: ref, desc: desc})
}

// addInject and addArmInject record work-introducing (environment)
// moves, excluded from the liveness drain graph.
func (sp *stepper) addInject(next state, desc string) {
	sp.out = append(sp.out, succ{s: next, kind: kindInject, desc: desc})
}

func (sp *stepper) addArmInject(next state, machine, st, ev, nx, desc string) {
	ref := armRef{Machine: machine, Key: proto.TKey{State: st, Event: ev, Next: nx}}
	sp.out = append(sp.out, succ{s: next, arm: ref, kind: kindInject, desc: desc})
}

func dirty(c byte) bool { return c == 'M' || c == 'O' }
func valid(c byte) bool { return c == 'S' || c == 'E' || c == 'O' || c == 'M' }

// satDec decrements a saturating {0, ≥1} counter: taking one message
// from "at least one" leaves either none or at least one.
func satDec(c byte) []byte {
	if c != '1' {
		panic("model bug: decrementing empty saturating counter")
	}
	return []byte{'0', '1'}
}

func drained(s state) bool {
	return s.Ag[0].Prb == '-' && s.Ag[1].Prb == '-' && s.TCC.Prb == '-'
}

// reqIdx finds the agent marked active for the current R/V transaction.
func reqIdx(s state, phase func(agent) byte) int {
	for i, a := range s.Ag {
		if phase(a) == 'a' {
			return i
		}
	}
	panic(fmt.Sprintf("model bug: no active requester in %s", s))
}

func ownerIdx(s state) int {
	for i, a := range s.Ag {
		if a.Own {
			return i
		}
	}
	return -1
}

func anySharer(s state) bool {
	return s.Ag[0].Shr || s.Ag[1].Shr || s.TCC.Shr
}

func clearSharers(s *state) {
	s.Ag[0].Shr, s.Ag[1].Shr, s.TCC.Shr = false, false, false
}

func dealloc(s *state) {
	s.Dir.Entry = '-'
	s.Ag[0].Own, s.Ag[1].Own = false, false
	clearSharers(s)
}

func clearTxn(s *state) {
	s.Dir.Busy = '-'
	s.Dir.Prbd, s.Dir.GotD, s.Dir.GotM, s.Dir.Rspd = false, false, false, false
}

func missEvent(k byte) string {
	switch k {
	case 'r':
		return "RdBlk"
	case 's':
		return "RdBlkS"
	case 'm':
		return "RdBlkM"
	}
	panic("model bug: unknown miss kind")
}

// probePlan is the probe target set of the directory's active
// transaction, derived from the request kind and the tracked entry —
// mirroring probeSet (stateless) and invTargets (tracked).
type probePlan struct {
	cpu  [2]bool
	tcc  bool
	kind byte // 'i' invalidate, 'd' downgrade
}

func (p probePlan) empty() bool { return !p.cpu[0] && !p.cpu[1] && !p.tcc }

// invTargetsM mirrors Directory.invTargets: precise multicast over
// owner+sharers under TrackOwnerSharers, broadcast otherwise.
func invTargetsM(s state, cfg ModelConfig, exclCPU int, exclTCC bool) probePlan {
	p := probePlan{kind: 'i'}
	if cfg.Mode == ModeTrackOwnerSharers {
		for j := 0; j < 2; j++ {
			if j == exclCPU {
				continue
			}
			if s.Ag[j].Shr || (s.Dir.Entry == 'O' && s.Ag[j].Own) {
				p.cpu[j] = true
			}
		}
		p.tcc = s.TCC.Shr && !exclTCC
		return p
	}
	for j := 0; j < 2; j++ {
		p.cpu[j] = j != exclCPU
	}
	p.tcc = !exclTCC
	return p
}

// planProbes computes the active transaction's probe plan. Kinds V and
// F never probe; kind E computes its targets at activation.
func planProbes(s state, cfg ModelConfig) probePlan {
	tracked := cfg.Mode != ModeStateless
	probeOwner := func() probePlan {
		var p probePlan
		p.kind = 'd'
		o := ownerIdx(s)
		if o < 0 {
			panic(fmt.Sprintf("model bug: O entry without owner in %s", s))
		}
		p.cpu[o] = true
		return p
	}
	switch s.Dir.Busy {
	case 'R':
		req := reqIdx(s, func(a agent) byte { return a.MissP })
		k := s.Ag[req].Miss
		if !tracked {
			var p probePlan
			p.cpu[1-req] = true
			if k == 'm' {
				p.kind, p.tcc = 'i', true
			} else {
				p.kind = 'd'
			}
			return p
		}
		switch s.Dir.Entry {
		case '-':
			return probePlan{kind: 'i'}
		case 'S':
			if k == 'm' {
				return invTargetsM(s, cfg, req, false)
			}
			return probePlan{kind: 'd'}
		default: // 'O'
			if k != 'm' {
				if s.Ag[req].Own {
					return probePlan{kind: 'd'} // owner re-read: no probes
				}
				return probeOwner()
			}
			return invTargetsM(s, cfg, req, false)
		}
	case 'T':
		if !tracked {
			return probePlan{cpu: [2]bool{true, true}, kind: 'd'}
		}
		if s.Dir.Entry == 'O' {
			return probeOwner()
		}
		return probePlan{kind: 'd'}
	case 'W', 'A':
		if !tracked {
			return probePlan{cpu: [2]bool{true, true}, kind: 'i'}
		}
		if s.Dir.Entry == '-' {
			return probePlan{kind: 'i'}
		}
		return invTargetsM(s, cfg, -1, true) // requester is the TCC
	case 'w':
		if !tracked {
			return probePlan{cpu: [2]bool{true, true}, tcc: true, kind: 'i'}
		}
		if s.Dir.Entry == '-' {
			return probePlan{kind: 'i'}
		}
		return invTargetsM(s, cfg, -1, false)
	case 'r':
		if !tracked {
			return probePlan{cpu: [2]bool{true, true}, kind: 'd'}
		}
		if s.Dir.Entry == 'O' {
			return probeOwner()
		}
		return probePlan{kind: 'd'}
	}
	panic(fmt.Sprintf("model bug: planProbes for kind %c", s.Dir.Busy))
}

// successors enumerates every abstract transition out of s, including
// self-loops (hits, stalls) so arm-coverage accounting sees them.
func successors(s state, cfg ModelConfig) []succ {
	return successorsInto(nil, s, cfg)
}

// successorsInto appends the successors to buf[:0], letting hot loops
// (frontier expansion, the liveness edge sweep) reuse one allocation
// across millions of states.
func successorsInto(buf []succ, s state, cfg ModelConfig) []succ {
	sp := stepper{out: buf[:0]}
	cpuSteps(&sp, s, cfg)
	tccSteps(&sp, s)
	dmaSteps(&sp, s)
	dirSteps(&sp, s, cfg)
	return sp.out
}

// cpuDescs holds the per-agent interned trace descriptions: building
// them with Sprintf/concat per visited state dominated the allocation
// profile of exploration.
type cpuDescSet struct {
	loadHit, storeHit, silentUp, upgIssue  string
	stallLoad, stallStore                  string
	issueRd, issueRdS, issueRdM, victimize string
	retire, prbVictim, prbInvData, prbDown string
	prbNoData, fill, upgFill, collect      string
	activateMiss                           [3]string // indexed by missIdx
	activateVictim, consumeUnblock         string
	grant                                  [3]string // indexed by grantIdx: S, E, M
}

var cpuDescs = [2]cpuDescSet{mkCPUDescs(0), mkCPUDescs(1)}

func mkCPUDescs(i int) cpuDescSet {
	who := fmt.Sprintf("cpu%d", i)
	return cpuDescSet{
		loadHit:    who + " load hit",
		storeHit:   who + " store hit",
		silentUp:   who + " silent E→M upgrade",
		upgIssue:   who + " issues RdBlkM upgrade",
		stallLoad:  who + " stalls load on victim buffer",
		stallStore: who + " stalls store on victim buffer",
		issueRd:    who + " issues RdBlk miss",
		issueRdS:   who + " issues RdBlkS miss",
		issueRdM:   who + " issues RdBlkM miss",
		victimize:  who + " victimizes the line",
		retire:     who + " retires victim on WBAck",
		prbVictim:  who + " answers probe from victim buffer",
		prbInvData: who + " invalidates on probe, acks with data",
		prbDown:    who + " downgrades on probe",
		prbNoData:  who + " acks probe without data",
		fill:       who + " installs fill, sends Unblock",
		upgFill:    who + " installs upgrade fill, sends Unblock",
		collect:    "directory collects " + who + " probe ack",
		activateMiss: [3]string{
			"directory activates " + who + " RdBlk",
			"directory activates " + who + " RdBlkS",
			"directory activates " + who + " RdBlkM",
		},
		activateVictim: "directory activates " + who + " victim",
		consumeUnblock: "directory consumes " + who + " Unblock, completes",
		grant: [3]string{
			"directory grants S to " + who,
			"directory grants E to " + who,
			"directory grants M to " + who,
		},
	}
}

// missIdx maps a miss kind byte onto the activateMiss index.
func missIdx(k byte) int {
	switch k {
	case 'r':
		return 0
	case 's':
		return 1
	default: // 'm'
		return 2
	}
}

// grantIdx maps a grant byte onto the grant description index.
func grantIdx(g byte) int {
	switch g {
	case 'S':
		return 0
	case 'E':
		return 1
	default: // 'M'
		return 2
	}
}

// ---------------------------------------------------------------------
// CPU L2 agents.

func cpuSteps(sp *stepper, s state, cfg ModelConfig) {
	for i := 0; i < 2; i++ {
		a := s.Ag[i]
		st := string(a.Cache)
		d := &cpuDescs[i]

		// Hits (self-loops, recorded for arm coverage).
		if valid(a.Cache) {
			sp.addArmInject(s, machL2, st, "Load", st, d.loadHit)
		}
		switch a.Cache {
		case 'M':
			sp.addArmInject(s, machL2, "M", "Store", "M", d.storeHit)
		case 'E':
			ns := s
			ns.Ag[i].Cache = 'M'
			sp.addArmInject(ns, machL2, "E", "Store", "M", d.silentUp)
		case 'S', 'O':
			if a.Miss == '-' {
				ns := s
				ns.Ag[i].Miss, ns.Ag[i].MissP = 'm', 'o'
				sp.addArmInject(ns, machL2, st, "Store", st, d.upgIssue)
			}
		case 'I':
			if a.WBPh != '-' && cfg.Bug != BugVictimRefetch {
				// Accesses to a line with a live victim stall until WBAck.
				sp.addArmInject(s, machL2, "WB", "Load", "WB", d.stallLoad)
				sp.addArmInject(s, machL2, "WB", "Store", "WB", d.stallStore)
			} else if a.Miss == '-' {
				for _, ik := range [2]struct {
					k    byte
					desc string
				}{{'r', d.issueRd}, {'s', d.issueRdS}} {
					ns := s
					ns.Ag[i].Miss, ns.Ag[i].MissP = ik.k, 'o'
					sp.addArmInject(ns, machL2, "I", "Load", "I", ik.desc)
				}
				ns := s
				ns.Ag[i].Miss, ns.Ag[i].MissP = 'm', 'o'
				sp.addArmInject(ns, machL2, "I", "Store", "I", d.issueRdM)
			}
		}

		// Eviction. A line with an outstanding miss is pinned in the L2
		// (corepair fill pins MSHR-resident lines); BugEvictDuringUpgrade
		// removes the pin, reintroducing the upgrade/eviction race.
		if valid(a.Cache) && a.WBPh == '-' && (a.Miss == '-' || cfg.Bug == BugEvictDuringUpgrade) {
			ns := s
			ns.Ag[i].Cache = 'I'
			ns.Ag[i].WBPh = 'o'
			ns.Ag[i].WBDty = dirty(a.Cache)
			sp.addArmInject(ns, machL2, st, "Evict", "WB", d.victimize)
		}

		// WBAck delivery retires the victim buffer. BugDropWake loses
		// the wake: the victim never retires and everything stalled
		// behind it starves — the -live lasso search must catch it.
		if a.WBPh == 'f' && cfg.Bug != BugDropWake {
			ns := s
			ns.Ag[i].WBPh, ns.Ag[i].WBDty = '-', false
			sp.addArm(ns, machL2, "WB", "WBAck", "I", d.retire)
		}

		// Probe delivery.
		if a.Prb == 'i' || a.Prb == 'd' {
			inv := a.Prb == 'i'
			ev := "PrbInv"
			if !inv {
				ev = "PrbDowngrade"
			}
			ns := s
			switch {
			case a.WBPh != '-':
				// The victim buffer answers; the (I) array state is untouched.
				ns.Ag[i].Prb = 'c'
				if a.WBDty {
					ns.Ag[i].Prb = 'm'
				}
				sp.addArm(ns, machL2, "WB", ev, "WB", d.prbVictim)
			case a.Cache != 'I':
				ns.Ag[i].Prb = 'c'
				if dirty(a.Cache) {
					ns.Ag[i].Prb = 'm'
				}
				if inv {
					ns.Ag[i].Cache = 'I'
					sp.addArm(ns, machL2, st, ev, "I", d.prbInvData)
				} else {
					nx := byte('S')
					if dirty(a.Cache) {
						nx = 'O'
					}
					ns.Ag[i].Cache = nx
					sp.addArm(ns, machL2, st, ev, string(nx), d.prbDown)
				}
			default:
				ns.Ag[i].Prb = 'n'
				sp.addArm(ns, machL2, "I", ev, "I", d.prbNoData)
			}
		}

		// Fill delivery.
		if g := a.MissP; g == 'S' || g == 'E' || g == 'M' {
			ns := s
			ns.Ag[i].Miss, ns.Ag[i].MissP = '-', '-'
			ns.Ag[i].Unb = true
			if a.Cache == 'I' {
				ns.Ag[i].Cache = g
				sp.addArm(ns, machL2, "I", "Fill", string(g), d.fill)
			} else {
				if g != 'M' {
					panic(fmt.Sprintf("model bug: upgrade fill with grant %c in %s", g, s))
				}
				ns.Ag[i].Cache = 'M'
				sp.addArm(ns, machL2, st, "Fill", "M", d.upgFill)
			}
		}

		// Probe-ack delivery at the directory (synthetic handler: the
		// collected ack updates the active transaction).
		if a.Prb == 'n' || a.Prb == 'c' || a.Prb == 'm' {
			if s.Dir.Busy == '-' {
				panic(fmt.Sprintf("model bug: probe ack in flight with idle directory in %s", s))
			}
			ns := s
			ns.Ag[i].Prb = '-'
			if a.Prb != 'n' {
				ns.Dir.GotD = true
			}
			if a.Prb == 'm' {
				ns.Dir.GotM = true
			}
			sp.add(ns, d.collect)
		}
	}
}

// ---------------------------------------------------------------------
// TCC (write-through mode).

func tccSteps(sp *stepper, s state) {
	t := s.TCC
	st := string(t.Cache)

	switch t.Cache {
	case 'V':
		sp.addArmInject(s, machTCC, "V", "Rd", "V", "tcc read hit")
		ns := s
		ns.TCC.Cache = 'I'
		sp.addArmInject(ns, machTCC, "V", "Evict", "I", "tcc drops clean victim silently")
	case 'I':
		if t.MissP == '-' {
			ns := s
			ns.TCC.MissP = 'o'
			sp.addArmInject(ns, machTCC, "I", "Rd", "I", "tcc issues RdBlk")
		}
	}

	// Writes and device-scope atomics install V and send a WT.
	for _, wr := range [2]struct{ ev, desc string }{
		{"Wr", "tcc Wr allocates and sends WT"},
		{"AtomicDev", "tcc AtomicDev allocates and sends WT"},
	} {
		ns := s
		ns.TCC.Cache = 'V'
		ns.TCC.Wt = '1'
		sp.addArmInject(ns, machTCC, st, wr.ev, "V", wr.desc)
	}
	// System-scope atomics bypass (dropping any local copy).
	{
		ns := s
		ns.TCC.Cache = 'I'
		ns.TCC.At = '1'
		sp.addArmInject(ns, machTCC, st, "AtomicSys", "I", "tcc issues system-scope Atomic")
	}

	// Fill delivery.
	if t.MissP == 'r' {
		ns := s
		ns.TCC.Cache, ns.TCC.MissP = 'V', '-'
		sp.addArm(ns, machTCC, st, "Fill", "V", "tcc installs fill")
	}

	// Probe delivery. TCC acks never carry data (write-through: clean).
	switch t.Prb {
	case 'i':
		ns := s
		ns.TCC.Cache, ns.TCC.Prb = 'I', 'n'
		if t.Cache == 'V' {
			sp.addArm(ns, machTCC, "V", "PrbInv", "I", "tcc drops copy, acks")
		} else {
			sp.addArm(ns, machTCC, "I", "PrbInv", "I", "tcc acks probe without data")
		}
	case 'n':
		if s.Dir.Busy == '-' {
			panic(fmt.Sprintf("model bug: tcc ack in flight with idle directory in %s", s))
		}
		ns := s
		ns.TCC.Prb = '-'
		sp.add(ns, "directory collects tcc probe ack")
	}
}

// ---------------------------------------------------------------------
// DMA engine.

func dmaSteps(sp *stepper, s state) {
	{
		ns := s
		ns.DMA.Rd = '1'
		sp.addArmInject(ns, machDMA, "-", "Rd", "-", "dma issues DMARd")
	}
	{
		ns := s
		ns.DMA.Wr = '1'
		sp.addArmInject(ns, machDMA, "-", "Wr", "-", "dma issues DMAWr")
	}
}
