package protocheck

import "fmt"

// The directory's abstract steps: activation of an outstanding request
// (one transaction per line, mirroring Directory.txns), probe sending,
// responding (with the §III-A early-dirty-response short-cut), and
// completion. Vic/Flush service is a single atomic step, like the
// concrete respondAndFinish path.

func dirSteps(sp *stepper, s state, cfg ModelConfig) {
	if s.Dir.Busy == '-' {
		dirActivations(sp, s, cfg)
		return
	}
	switch s.Dir.Busy {
	case 'V':
		dirVicService(sp, s, cfg)
	case 'E':
		if drained(s) {
			ns := s
			dealloc(&ns)
			clearTxn(&ns)
			sp.add(ns, "directory completes back-invalidation, deallocates entry")
		}
	default:
		dirProbeRespond(sp, s, cfg)
	}
}

func dirMach(cfg ModelConfig) string {
	if cfg.Mode == ModeStateless {
		return machStateless
	}
	return machTracked
}

// dirActivations starts one of the line's outstanding requests. The
// concrete directory serializes per line (pend FIFO); the model picks
// nondeterministically, a superset of any queue order.
func dirActivations(sp *stepper, s state, cfg ModelConfig) {
	if !drained(s) {
		panic(fmt.Sprintf("model bug: probes in flight with idle directory in %s", s))
	}
	for i := 0; i < 2; i++ {
		if s.Ag[i].MissP == 'o' {
			ns := s
			ns.Ag[i].MissP = 'a'
			ns.Dir.Busy = 'R'
			sp.add(ns, cpuDescs[i].activateMiss[missIdx(s.Ag[i].Miss)])
		}
		if s.Ag[i].WBPh == 'o' {
			ns := s
			ns.Ag[i].WBPh = 'a'
			ns.Dir.Busy = 'V'
			sp.add(ns, cpuDescs[i].activateVictim)
		}
	}
	if s.TCC.MissP == 'o' {
		ns := s
		ns.TCC.MissP = 'a'
		ns.Dir.Busy = 'T'
		sp.add(ns, "directory activates tcc RdBlk")
	}
	// Release flush: touches no line state, so issue, service and the
	// FlushAck collapse into one atomic (self-loop) step.
	sp.addArmInject(s, machTCC, "-", "Release", "-", "tcc sends release flush")
	sp.addArmInject(s, dirMach(cfg), "-", "Flush", "-", "directory acks release flush")
	sp.addArmInject(s, machTCC, "-", "FlushAck", "-", "tcc completes release flush")

	type queued struct {
		count *byte
		kind  byte
		desc  string
	}
	base := s
	for _, q := range []queued{
		{&base.TCC.Wt, 'W', "directory activates tcc WT"},
		{&base.TCC.At, 'A', "directory activates tcc Atomic"},
		{&base.DMA.Rd, 'r', "directory activates DMARd"},
		{&base.DMA.Wr, 'w', "directory activates DMAWr"},
	} {
		if *q.count != '1' {
			continue
		}
		for _, rest := range satDec(*q.count) {
			ns := s
			switch q.kind {
			case 'W':
				ns.TCC.Wt = rest
			case 'A':
				ns.TCC.At = rest
			case 'r':
				ns.DMA.Rd = rest
			case 'w':
				ns.DMA.Wr = rest
			}
			ns.Dir.Busy = q.kind
			// Taking one message from a saturated "at least one" counter
			// either drains it (progress) or re-asserts that more work is
			// outstanding — that branch is an environment injection, or
			// the drain graph would loop on servicing phantom messages.
			if rest == '1' {
				sp.addInject(ns, q.desc)
			} else {
				sp.add(ns, q.desc)
			}
		}
	}

	// Backward invalidation: directory-cache pressure from other lines
	// may evict this line's entry at any quiescent moment. Probes go out
	// in the same step (evictEntry sends synchronously).
	if cfg.Mode != ModeStateless && s.Dir.Entry != '-' {
		p := invTargetsM(s, cfg, -1, false)
		if p.empty() {
			ns := s
			dealloc(&ns)
			sp.addInject(ns, "directory evicts untargeted entry (back-invalidation, no probes)")
		} else {
			ns := s
			sendPlan(&ns, p)
			ns.Dir.Busy = 'E'
			ns.Dir.Prbd = true
			sp.addInject(ns, "directory evicts entry, sends back-invalidation probes")
		}
	}
}

// sendPlan marks every planned probe in flight.
func sendPlan(s *state, p probePlan) {
	for j := 0; j < 2; j++ {
		if p.cpu[j] {
			if s.Ag[j].Prb != '-' {
				panic(fmt.Sprintf("model bug: overlapping probes to cpu%d in %s", j, s))
			}
			s.Ag[j].Prb = p.kind
		}
	}
	if p.tcc {
		if s.TCC.Prb != '-' || p.kind != 'i' {
			panic(fmt.Sprintf("model bug: overlapping or downgrade probe to tcc in %s", s))
		}
		s.TCC.Prb = p.kind
	}
}

// dirProbeRespond handles kinds R/T/W/A/r/w: send the probe wave, then
// respond once the acks drain (or early, §III-A: EDR with a dirty
// downgrade ack in hand), then complete.
func dirProbeRespond(sp *stepper, s state, cfg ModelConfig) {
	dr := drained(s)

	if !s.Dir.Rspd {
		// The probe plan is only defined pre-respond (the requester mark
		// turns into the in-flight grant at respond time).
		p := planProbes(s, cfg)
		if !p.empty() && !s.Dir.Prbd {
			ns := s
			sendPlan(&ns, p)
			ns.Dir.Prbd = true
			sp.add(ns, "directory sends probes")
			return // probes strictly precede the response
		}
		// BugSkipAck drops the drain requirement: the response races
		// the probes it should have waited for.
		canRespond := p.empty() || dr ||
			(cfg.EDR && p.kind == 'd' && s.Dir.GotM) ||
			cfg.Bug == BugSkipAck
		if canRespond {
			switch s.Dir.Busy {
			case 'R':
				dirRespondCPURead(sp, s, cfg)
			case 'T':
				dirRespondTCCRead(sp, s, cfg)
			case 'r':
				dirRespondDMARead(sp, s, cfg)
			case 'W', 'A', 'w':
				if dr { // no EDR for invalidating writes: full drain required
					dirServeWrite(sp, s, cfg)
				}
			}
		}
	}

	// Completion (kinds with a separate respond phase). CPU reads hold
	// the transaction until the requester's Unblock arrives.
	if s.Dir.Rspd && dr {
		switch s.Dir.Busy {
		case 'R':
			for i := 0; i < 2; i++ {
				if s.Ag[i].Unb {
					ns := s
					ns.Ag[i].Unb = false
					clearTxn(&ns)
					sp.add(ns, cpuDescs[i].consumeUnblock)
				}
			}
		case 'T', 'r':
			ns := s
			clearTxn(&ns)
			sp.add(ns, "directory completes transaction")
		}
	}
}

// dirRespondCPURead responds to the active RdBlk/RdBlkS/RdBlkM and
// applies the tracked entry update (the concrete directory applies its
// txn's commit kind at respond time).
func dirRespondCPURead(sp *stepper, s state, cfg ModelConfig) {
	req := reqIdx(s, func(a agent) byte { return a.MissP })
	k := s.Ag[req].Miss
	ev := missEvent(k)
	ns := s
	ns.Dir.Rspd = true

	if cfg.Mode == ModeStateless {
		grant := byte('M')
		switch k {
		case 's':
			grant = 'S'
		case 'r':
			grant = 'E'
			if s.Dir.GotD {
				grant = 'S'
			}
		}
		ns.Ag[req].MissP = grant
		sp.addArm(ns, machStateless, "-", ev, "-", cpuDescs[req].grant[grantIdx(grant)])
		return
	}

	// Tracked: grant, entry update and arm depend on the entry state.
	// RdBlkS always grants Shared; only RdBlk on a fresh entry may be
	// granted Exclusive straight from memory (forceShared elsewhere).
	grant := byte('M')
	if k != 'm' {
		grant = 'S'
		if k == 'r' && s.Dir.Entry == '-' && !s.Dir.GotD {
			grant = 'E'
		}
	}
	ns.Ag[req].MissP = grant
	desc := cpuDescs[req].grant[grantIdx(grant)]

	switch s.Dir.Entry {
	case '-':
		if k == 'm' || k == 'r' {
			ns.Dir.Entry = 'O'
			ns.Ag[req].Own = true
			sp.addArm(ns, machTracked, "I", ev, "O", desc+", tracks owner")
		} else {
			ns.Dir.Entry = 'S'
			ns.Ag[req].Shr = true
			sp.addArm(ns, machTracked, "I", "RdBlkS", "S", desc+", adds sharer")
		}
	case 'S':
		if k == 'm' {
			clearSharers(&ns)
			ns.Dir.Entry = 'O'
			ns.Ag[req].Own = true
			sp.addArm(ns, machTracked, "S", "RdBlkM", "O", desc+", invalidated sharers, tracks owner")
		} else {
			ns.Ag[req].Shr = true
			sp.addArm(ns, machTracked, "S", ev, "S", desc+", adds sharer")
		}
	case 'O':
		owner := ownerIdx(s)
		switch {
		case k != 'm' && owner == req:
			// Owner re-read (footnote c/d): entry to S, requester is the
			// sole sharer.
			ns.Ag[req].Own = false
			clearSharers(&ns)
			ns.Dir.Entry = 'S'
			ns.Ag[req].Shr = true
			sp.addArm(ns, machTracked, "O", ev, "S", desc+" (owner re-read)")
		case k != 'm':
			if s.Dir.GotM {
				// Owner downgraded M→O: dirty sharers (footnote h).
				ns.Ag[req].Shr = true
				sp.addArm(ns, machTracked, "O", ev, "O", desc+", owner M→O")
			} else {
				// Owner held clean Exclusive; all Shared now.
				ns.Ag[owner].Own = false
				ns.Dir.Entry = 'S'
				ns.Ag[owner].Shr = true
				ns.Ag[req].Shr = true
				sp.addArm(ns, machTracked, "O", ev, "S", desc+", owner E→S")
			}
		case owner == req:
			// Upgrade: sharers were invalidated; ownership unchanged.
			clearSharers(&ns)
			sp.addArm(ns, machTracked, "O", "RdBlkM", "O", desc+" (owner upgrade)")
		default:
			ns.Ag[owner].Own = false
			clearSharers(&ns)
			ns.Ag[req].Own = true
			sp.addArm(ns, machTracked, "O", "RdBlkM", "O", desc+", transfers ownership")
		}
	}
}

// dirRespondTCCRead responds to the TCC's RdBlk (always Shared; the
// TCC ignores grants).
func dirRespondTCCRead(sp *stepper, s state, cfg ModelConfig) {
	ns := s
	ns.Dir.Rspd = true
	ns.TCC.MissP = 'r'
	if cfg.Mode == ModeStateless {
		sp.addArm(ns, machStateless, "-", "RdBlk", "-", "directory responds to tcc RdBlk")
		return
	}
	switch s.Dir.Entry {
	case '-':
		ns.Dir.Entry = 'S'
		ns.TCC.Shr = true
		sp.addArm(ns, machTracked, "I", "RdBlk", "S", "directory responds to tcc RdBlk, adds tcc sharer")
	case 'S':
		ns.TCC.Shr = true
		sp.addArm(ns, machTracked, "S", "RdBlk", "S", "directory responds to tcc RdBlk, adds tcc sharer")
	default: // 'O'
		if s.Dir.GotM {
			ns.TCC.Shr = true
			sp.addArm(ns, machTracked, "O", "RdBlk", "O", "directory responds to tcc RdBlk, owner M→O")
		} else {
			owner := ownerIdx(s)
			ns.Ag[owner].Own = false
			ns.Dir.Entry = 'S'
			ns.Ag[owner].Shr = true
			ns.TCC.Shr = true
			sp.addArm(ns, machTracked, "O", "RdBlk", "S", "directory responds to tcc RdBlk, owner E→S")
		}
	}
}

// dirRespondDMARead responds to a DMARd (data only; tracking changes
// limited to the owner's natural downgrade).
func dirRespondDMARead(sp *stepper, s state, cfg ModelConfig) {
	ns := s
	ns.Dir.Rspd = true
	// The Resp to the DMA engine only completes the oldest read — it
	// interacts with nothing else, so its delivery folds into this step.
	emit := func(ns state, mach, st, next, desc string) {
		sp.addArm(ns, mach, st, "DMARd", next, desc)
		sp.addArm(ns, machDMA, "-", "Resp", "-", "dma completes oldest read on the line")
	}
	if cfg.Mode == ModeStateless {
		emit(ns, machStateless, "-", "-", "directory responds to DMARd")
		return
	}
	switch s.Dir.Entry {
	case '-':
		emit(ns, machTracked, "I", "I", "directory responds to DMARd")
	case 'S':
		emit(ns, machTracked, "S", "S", "directory responds to DMARd")
	default:
		if s.Dir.GotM {
			emit(ns, machTracked, "O", "O", "directory responds to DMARd, owner M→O")
		} else {
			owner := ownerIdx(s)
			ns.Ag[owner].Own = false
			ns.Dir.Entry = 'S'
			ns.Ag[owner].Shr = true
			emit(ns, machTracked, "O", "S", "directory responds to DMARd, owner E→S")
		}
	}
}

// dirServeWrite completes WT/Atomic/DMAWr in one step once every ack
// drained: commit, entry update, completion message. (The concrete
// respond and complete coincide here: no unblock, memory always ready.)
func dirServeWrite(sp *stepper, s state, cfg ModelConfig) {
	kind := s.Dir.Busy
	var ev string
	// The completion ack to the writer only drains its counter, so its
	// delivery folds into the commit step; emit carries both arm labels.
	var ackMach, ackEv, ackDesc string
	ns := s
	switch kind {
	case 'W':
		ev = "WT"
		ackMach, ackEv, ackDesc = machTCC, "WBAck", "tcc retires oldest WT on the line"
	case 'A':
		ev = "Atomic"
		ackMach, ackEv, ackDesc = machTCC, "AtomicResp", "tcc delivers old value to waiter"
	case 'w':
		ev = "DMAWr"
		ackMach, ackEv, ackDesc = machDMA, "WBAck", "dma completes oldest write on the line"
	}
	clearTxn(&ns)
	emit := func(ns state, mach, st, next, desc string) {
		sp.addArm(ns, mach, st, ev, next, desc)
		sp.addArm(ns, ackMach, "-", ackEv, "-", ackDesc)
	}

	if cfg.Mode == ModeStateless {
		emit(ns, machStateless, "-", "-", "directory commits "+ev+" after invalidations")
		return
	}
	switch s.Dir.Entry {
	case '-':
		emit(ns, machTracked, "I", "I", "directory commits "+ev+" (no holders)")
	default:
		st := string(s.Dir.Entry)
		if kind == 'W' {
			// Write-through TCC keeps its copy: retain it as the sole sharer.
			dealloc(&ns)
			ns.Dir.Entry = 'S'
			ns.TCC.Shr = true
			emit(ns, machTracked, st, "S", "directory commits WT, retains tcc sharer")
		} else {
			dealloc(&ns)
			emit(ns, machTracked, st, "I", "directory commits "+ev+", deallocates entry")
		}
	}
}

// dirVicService services the active victim atomically (the concrete
// trackedVictim/commitVictim + respondAndFinish path).
func dirVicService(sp *stepper, s state, cfg ModelConfig) {
	req := reqIdx(s, func(a agent) byte { return a.WBPh })
	vicDirty := s.Ag[req].WBDty
	ev := "VicClean"
	if vicDirty {
		ev = "VicDirty"
	}
	ns := s
	ns.Ag[req].WBPh = 'f'
	clearTxn(&ns)

	if cfg.Mode == ModeStateless {
		sp.addArm(ns, machStateless, "-", ev, "-", fmt.Sprintf("directory commits cpu%d %s", req, ev))
		return
	}

	desc := fmt.Sprintf("directory services cpu%d %s", req, ev)
	e := s.Dir.Entry
	switch {
	case e == '-':
		sp.addArm(ns, machTracked, "I", ev, "I", desc+" (stale victim)")
	case vicDirty && e == 'O' && s.Ag[req].Own:
		if anySharer(s) {
			ns.Ag[req].Own = false
			ns.Dir.Entry = 'S'
			sp.addArm(ns, machTracked, "O", "VicDirty", "S", desc+", sharers now coherent")
		} else {
			dealloc(&ns)
			sp.addArm(ns, machTracked, "O", "VicDirty", "I", desc+", deallocates entry")
		}
	case vicDirty:
		// Superseded dirty victim from a displaced owner: dropped.
		sp.addArm(ns, machTracked, string(e), "VicDirty", string(e), desc+" (superseded, dropped)")
	case e == 'O' && s.Ag[req].Own:
		ns.Ag[req].Own = false
		if !anySharer(s) {
			dealloc(&ns)
			sp.addArm(ns, machTracked, "O", "VicClean", "I", desc+", deallocates entry")
		} else {
			ns.Dir.Entry = 'S'
			sp.addArm(ns, machTracked, "O", "VicClean", "S", desc+", sharers remain")
		}
	default:
		ns.Ag[req].Shr = false
		if !anySharer(ns) && e == 'S' {
			dealloc(&ns)
			sp.addArm(ns, machTracked, "S", "VicClean", "I", desc+", last sharer left")
		} else {
			sp.addArm(ns, machTracked, string(e), "VicClean", string(e), desc+", removes sharer")
		}
	}
}
