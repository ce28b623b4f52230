package core

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
)

// This file implements the §IV precise state-tracking directory: the
// I/S/O stable states of Table I, owner-only and owner+sharers probe
// targeting, the directory cache with tree-PLRU (or the future-work
// fewest-sharers policy), and backward invalidations on entry eviction.

func (d *Directory) beginTracked(t *txn) {
	m := &t.req
	switch m.Type {
	case msg.RdBlk, msg.RdBlkS, msg.RdBlkM:
		ln := d.dirArr.Lookup(t.addr)
		if ln == nil {
			d.allocateEntry(t)
			return
		}
		d.trackedRead(t, &ln.Meta, false)

	case msg.VicDirty, msg.VicClean:
		d.trackedVictim(t)

	case msg.WT:
		d.Stats.WriteThroughs++
		d.trackedWritePerm(t)

	case msg.Atomic:
		d.Stats.Atomics++
		t.needData = true
		d.issueRead(t)
		d.trackedWritePerm(t)

	case msg.Flush:
		d.opts.Recorder.Record(machTracked, "-", "Flush", "-") //proto:actions FlushAck //proto:emits FlushAck
		d.Stats.Flushes++
		d.respondAndFinish(t, msg.FlushAck)

	case msg.DMARd:
		d.trackedDMARead(t)

	case msg.DMAWr:
		d.trackedWritePerm(t)

	default:
		d.violate("dispatch", t.addr, t.id, t.req, "request type not handled by the tracked directory")
	}
}

// trackedRead handles RdBlk/RdBlkS/RdBlkM with a resident entry.
// fresh reports that the entry was just allocated (state I semantics).
func (d *Directory) trackedRead(t *txn, e *dirEntry, fresh bool) {
	m := &t.req
	reqIdx := d.targetIndex(m.Src)
	t.needUnblock = !d.isTCC(m.Src)
	isWrite := m.Type == msg.RdBlkM
	t.entry, t.reqIdx = e, int8(reqIdx)

	switch {
	case fresh:
		// State I: no cache holds the line; no probes (the headline win
		// over the stateless baseline, §IV-A). Serve from LLC/memory.
		d.sendProbes(t, isWrite, nil)
		t.needData = true
		if d.isTCC(m.Src) {
			t.forceShared = true
		}
		d.issueRead(t)
		t.commit = commitFill

	case e.State == dirS:
		if !isWrite {
			// LLC/memory guaranteed coherent: no probes, forced Shared.
			d.opts.Recorder.Record(machTracked, "S", m.Type.String(), "S") //proto:events RdBlk,RdBlkS //proto:actions no probes, serve LLC/mem, add sharer //proto:emits Resp
			d.sendProbes(t, false, nil)
			t.forceShared = true
			t.needData = true
			d.issueRead(t)
			t.commit = commitAddSharer
			break
		}
		// RdBlkM on a shared line: invalidate sharers, data from LLC.
		d.opts.Recorder.Record(machTracked, "S", "RdBlkM", "O") //proto:actions invalidate sharers, serve LLC/mem, track owner //proto:emits PrbInv,Resp
		d.sendProbes(t, true, d.invTargets(e, m.Src))
		t.needData = true
		d.issueRead(t)
		t.commit = commitTakeOwnership

	case e.State == dirO:
		owner := int(e.Owner)
		switch {
		case !isWrite && owner == reqIdx:
			// Footnote c/d: the owner itself re-requests (I$ miss on an
			// Exclusive line): E→S at the L2, no probes, serve the LLC.
			d.opts.Recorder.Record(machTracked, "O", m.Type.String(), "S") //proto:events RdBlk,RdBlkS //proto:actions owner re-read, no probes, serve LLC/mem //proto:emits Resp
			d.sendProbes(t, false, nil)
			t.forceShared = true
			t.needData = true
			d.issueRead(t)
			t.commit = commitOwnerReread
		case !isWrite:
			// Probe only the owner (§IV-A); its ack is the data source.
			// The LLC read is elided: the LLC may be stale.
			d.sendProbes(t, false, []msg.NodeID{d.targets[owner]})
			t.forceShared = true
			t.needData = true
			t.downgrade = true
			t.commit = commitOwnerRead
			t.owner = int8(owner)
		case owner == reqIdx:
			// Upgrade: the owner wants Modified; invalidate sharers only.
			d.opts.Recorder.Record(machTracked, "O", "RdBlkM", "O") //proto:actions owner upgrade, invalidate sharers only //proto:emits PrbInv,Resp
			d.sendProbes(t, true, d.invTargets(e, m.Src))
			t.commit = commitUpgrade
		default:
			// RdBlkM: invalidate owner and sharers; the owner's ack
			// carries the data, so the LLC read is elided.
			d.opts.Recorder.Record(machTracked, "O", "RdBlkM", "O") //proto:actions invalidate owner and sharers, data from owner ack, transfer ownership //proto:emits PrbInv,Resp
			d.sendProbes(t, true, d.invTargets(e, m.Src))
			t.needData = true
			t.commit = commitTakeOwnership
		}
	}
	d.maybeProgress(t)
}

// commitFill tracks the requester of a read that found the line
// untracked (state I).
func (d *Directory) commitFill(t *txn) {
	m, e := &t.req, t.entry
	if m.Type == msg.RdBlkM {
		d.opts.Recorder.Record(machTracked, "I", "RdBlkM", "O") //proto:actions no probes, serve LLC/mem, track owner //proto:emits Resp
		e.State = dirO
		e.Owner = t.reqIdx
		e.Sharers = 0
	} else if d.isTCC(m.Src) || m.Type == msg.RdBlkS {
		d.opts.Recorder.Record(machTracked, "I", m.Type.String(), "S") //proto:events RdBlk,RdBlkS //proto:actions no probes, serve LLC/mem, add sharer //proto:emits Resp
		e.State = dirS
		e.Owner = -1
		d.addSharer(e, int(t.reqIdx))
	} else {
		// RdBlk granted Exclusive: conservatively O (silent E→M).
		d.opts.Recorder.Record(machTracked, "I", "RdBlk", "O") //proto:actions no probes, serve LLC/mem, grant Exclusive, track owner //proto:emits Resp
		e.State = dirO
		e.Owner = t.reqIdx
		e.Sharers = 0
	}
}

// commitOwnerRead updates an O entry whose owner a reader probed.
func (d *Directory) commitOwnerRead(t *txn) {
	m, e := &t.req, t.entry
	if t.dirtyAck {
		// Owner downgraded M→O; dirty sharers (footnote h).
		d.opts.Recorder.Record(machTracked, "O", m.Type.String(), "O") //proto:events RdBlk,RdBlkS //proto:actions probe owner only, owner M->O, dirty sharers //proto:emits PrbDowngrade,Resp
		d.addSharer(e, int(t.reqIdx))
	} else {
		// Owner had a clean Exclusive line; now all Shared.
		d.opts.Recorder.Record(machTracked, "O", m.Type.String(), "S") //proto:events RdBlk,RdBlkS //proto:actions probe owner only, owner E->S //proto:emits PrbDowngrade,Resp
		e.State = dirS
		e.Owner = -1
		d.addSharer(e, int(t.owner))
		d.addSharer(e, int(t.reqIdx))
	}
}

// trackedVictim handles VicDirty/VicClean per Table I.
func (d *Directory) trackedVictim(t *txn) {
	m := &t.req
	dirty := m.Type == msg.VicDirty
	ln := d.dirArr.Lookup(t.addr)
	reqIdx := d.targetIndex(m.Src)

	if ln == nil {
		// Untracked victim: the entry was evicted (its backward
		// invalidation already captured the data) or raced away. The
		// write is a harmless duplicate of identical data.
		d.opts.Recorder.Record(machTracked, "I", m.Type.String(), "I") //proto:events VicClean,VicDirty //proto:actions stale victim, commit write, WBAck //proto:emits WBAck
		d.Stats.StaleVictims++
		d.commitVictim(t, dirty)
		d.respondAndFinish(t, msg.WBAck)
		return
	}
	e := &ln.Meta
	switch {
	case dirty && e.State == dirO && int(e.Owner) == reqIdx:
		d.commitVictim(t, true)
		if e.Sharers != 0 && !d.opts.KeepDirtySharersOnEvict {
			// Remaining dirty sharers are now coherent with the LLC.
			d.opts.Recorder.Record(machTracked, "O", "VicDirty", "S") //proto:actions commit dirty victim, sharers now coherent //proto:emits WBAck
			e.State = dirS
			e.Owner = -1
		} else {
			// No sharers — or §VII future work: deallocate without
			// invalidating dirty sharers (they never forward data).
			d.opts.Recorder.Record(machTracked, "O", "VicDirty", "I") //proto:actions commit dirty victim, deallocate entry //proto:emits WBAck
			d.dirArr.Invalidate(t.addr)
		}
	case dirty:
		// Dirty victim from a non-owner: it raced a transaction that
		// already moved ownership; the data was superseded. Drop it.
		d.opts.Recorder.Record(machTracked, e.State.String(), "VicDirty", e.State.String()) //proto:states S,O //proto:next S,O //proto:actions superseded dirty victim dropped //proto:emits WBAck
		d.Stats.StaleVictims++
	case e.State == dirS || e.State == dirO:
		// Clean victim: remove the sharer (footnote g: an O-state line
		// can send VicClean when the L2 held it Exclusive).
		if e.State == dirO && int(e.Owner) == reqIdx {
			e.Owner = -1
			if e.Sharers == 0 {
				d.opts.Recorder.Record(machTracked, "O", "VicClean", "I") //proto:actions owner evicts clean Exclusive line, deallocate entry //proto:emits WBAck
				d.dirArr.Invalidate(t.addr)
				d.commitVictim(t, false)
				d.respondAndFinish(t, msg.WBAck)
				return
			}
			d.opts.Recorder.Record(machTracked, "O", "VicClean", "S") //proto:actions owner evicts clean Exclusive line, sharers remain //proto:emits WBAck
			e.State = dirS
		} else if reqIdx >= 0 {
			e.Sharers &^= 1 << uint(reqIdx)
			if e.Sharers == 0 && e.State == dirS && !e.Overflow {
				d.opts.Recorder.Record(machTracked, "S", "VicClean", "I") //proto:actions last sharer left, deallocate entry //proto:emits WBAck
				d.dirArr.Invalidate(t.addr)
			} else {
				d.opts.Recorder.Record(machTracked, e.State.String(), "VicClean", e.State.String()) //proto:states S,O //proto:next S,O //proto:actions remove sharer //proto:emits WBAck
			}
		}
		d.commitVictim(t, false)
	}
	d.respondAndFinish(t, msg.WBAck)
}

// trackedWritePerm handles WT/Atomic/DMAWr: invalidate every holder per
// the entry, then (commitWritePerm) commit the write and update the
// entry.
func (d *Directory) trackedWritePerm(t *txn) {
	if ln := d.dirArr.Lookup(t.addr); ln == nil {
		// Inclusive directory: no processor cache holds the line.
		d.sendProbes(t, true, nil)
	} else {
		t.entry = &ln.Meta
		d.sendProbes(t, true, d.invTargets(t.entry, t.req.Src))
	}
	t.commit = commitWritePerm
	d.maybeProgress(t)
}

// commitWritePerm commits a tracked WT/Atomic/DMAWr and updates its
// entry (nil: the line was untracked). A retaining WT keeps the TCC
// registered as a sharer (a write-through TCC keeps its copy).
func (d *Directory) commitWritePerm(t *txn) {
	d.commitWrite(t)
	e := t.entry
	if e == nil {
		d.opts.Recorder.Record(machTracked, "I", t.req.Type.String(), "I") //proto:events WT,Atomic,DMAWr //proto:actions no holders, commit write //proto:emits WBAck,AtomicResp
	} else if t.req.Type == msg.WT && t.req.Retain {
		d.opts.Recorder.Record(machTracked, e.State.String(), t.req.Type.String(), "S") //proto:states S,O //proto:events WT //proto:actions invalidate holders, commit write, retain write-through TCC as sharer //proto:emits PrbInv,WBAck
		e.State = dirS
		e.Owner = -1
		e.Sharers = 0
		e.Overflow = false
		d.addSharer(e, d.targetIndex(t.req.Src))
	} else {
		d.opts.Recorder.Record(machTracked, e.State.String(), t.req.Type.String(), "I") //proto:states S,O //proto:events WT,Atomic,DMAWr //proto:actions invalidate holders, commit write, deallocate entry //proto:emits PrbInv,WBAck,AtomicResp
		d.dirArr.Invalidate(t.addr)
	}
}

// trackedDMARead serves DMARd: probe the owner when the line is O,
// otherwise the LLC/memory is coherent. DMA never alters tracking state
// beyond the owner's natural M→O downgrade.
func (d *Directory) trackedDMARead(t *txn) {
	t.needData = true
	ln := d.dirArr.Lookup(t.addr)
	if ln != nil && ln.Meta.State == dirO {
		owner := int(ln.Meta.Owner)
		t.downgrade = true
		d.sendProbes(t, false, []msg.NodeID{d.targets[owner]})
		t.entry, t.owner = &ln.Meta, int8(owner)
		t.commit = commitDMAOwner
	} else {
		if ln == nil {
			d.opts.Recorder.Record(machTracked, "I", "DMARd", "I") //proto:actions no probes, serve LLC/mem //proto:emits Resp
		} else {
			d.opts.Recorder.Record(machTracked, "S", "DMARd", "S") //proto:actions no probes, serve LLC/mem //proto:emits Resp
		}
		d.sendProbes(t, false, nil)
		d.issueRead(t)
	}
	d.maybeProgress(t)
}

// commitDMAOwner records the owner's downgrade under a DMARd.
func (d *Directory) commitDMAOwner(t *txn) {
	if !t.dirtyAck {
		d.opts.Recorder.Record(machTracked, "O", "DMARd", "S") //proto:actions probe owner, owner E->S //proto:emits PrbDowngrade,Resp
		e := t.entry
		e.State = dirS
		e.Owner = -1
		d.addSharer(e, int(t.owner))
	} else {
		d.opts.Recorder.Record(machTracked, "O", "DMARd", "O") //proto:actions probe owner, owner M->O //proto:emits PrbDowngrade,Resp
	}
}

// invTargets computes invalidation destinations for a tracked line:
// a multicast over owner+sharers when sharer tracking is precise, a
// broadcast otherwise (owner-only mode, or an overflowed pointer list).
// The slice is d.dsts, valid until the next probeSet or invTargets.
func (d *Directory) invTargets(e *dirEntry, exclude msg.NodeID) []msg.NodeID {
	out := d.dsts[:0]
	if d.opts.Tracking == TrackOwnerSharers && !e.Overflow {
		for i, n := range d.targets {
			if n == exclude {
				continue
			}
			if (e.Sharers&(1<<uint(i))) != 0 || (e.State == dirO && int(e.Owner) == i) {
				out = append(out, n)
			}
		}
		return out
	}
	for _, n := range d.targets {
		if n != exclude {
			out = append(out, n)
		}
	}
	return out
}

// addSharer registers a probe-target index in the sharer list, honoring
// the limited-pointer bound (footnote b: on overflow, keep existing
// pointers and fall back to broadcast).
func (d *Directory) addSharer(e *dirEntry, idx int) {
	if idx < 0 || e.Sharers&(1<<uint(idx)) != 0 {
		return
	}
	if d.opts.LimitedPointers > 0 && e.sharerCount() >= d.opts.LimitedPointers {
		e.Overflow = true
		return
	}
	e.Sharers |= 1 << uint(idx)
}

// ---------------------------------------------------------------------
// Directory-entry allocation and backward invalidation.

// entryPinned reports whether a directory way must not be evicted: its
// entry is being evicted already, or a live txn refers to it.
func (d *Directory) entryPinned(ln *cachearray.Line[dirEntry]) bool {
	return ln.Meta.Busy || d.txns[ln.Tag] != nil
}

// allocateEntry finds a way for read t's line, evicting (with backward
// invalidations) if the set is full, then serves t from the new entry.
func (d *Directory) allocateEntry(t *txn) {
	var victim *cachearray.Line[dirEntry]
	if d.opts.DirRepl == DirReplFewestSharers {
		victim = d.fewestSharersVictim(t.addr, d.pinEntry)
	} else {
		victim = d.dirArr.FindVictim(t.addr, d.pinEntry)
	}
	if victim == nil || (victim.Valid && d.entryPinned(victim)) {
		// Every way is busy; retry after a directory-cycle.
		d.Stats.AllocStalls++
		d.engine.Post(d.timing.DirLatency, d, dirKindAllocRetry, 0, t)
		return
	}
	if !victim.Valid {
		d.installEntry(t)
		return
	}
	d.evictEntry(victim, t)
}

// installEntry allocates read t's entry in a free way and serves t as a
// state-I read.
func (d *Directory) installEntry(t *txn) {
	ln, _, _, _ := d.dirArr.Insert(t.addr, d.pinEntry)
	ln.Meta.Owner = -1
	d.trackedRead(t, &ln.Meta, true)
}

// fewestSharersVictim implements the §VII future-work policy: prefer
// unmodified (S) entries with the fewest sharers; fall back to any
// unpinned way; deterministic first-match tie-break.
func (d *Directory) fewestSharersVictim(addr cachearray.LineAddr, pin func(*cachearray.Line[dirEntry]) bool) *cachearray.Line[dirEntry] {
	ways := d.dirArr.Ways(addr)
	var best *cachearray.Line[dirEntry]
	bestScore := 1 << 30
	for i := range ways {
		ln := &ways[i]
		if !ln.Valid {
			return ln
		}
		if pin(ln) {
			continue
		}
		score := ln.Meta.sharerCount()
		if ln.Meta.State == dirO {
			score += 1 << 16 // deprioritize modified entries
		}
		if score < bestScore {
			bestScore = score
			best = ln
		}
	}
	return best
}

// evictEntry performs the backward invalidation of a directory entry:
// probe-invalidate every (tracked or possible) holder, write any dirty
// data pulled back into the LLC, deallocate, then resume the read
// waiting for the way.
func (d *Directory) evictEntry(victim *cachearray.Line[dirEntry], waiting *txn) {
	d.Stats.EntryEvictions++
	line := victim.Tag
	victim.Meta.Busy = true
	et := d.freeTxns.Get()
	*et = txn{id: d.nextID, addr: line, eviction: true, waiting: waiting,
		req: msg.Message{Type: msg.PrbInv, Addr: line}}
	d.nextID++
	d.txns[line] = et
	targets := d.invTargets(&victim.Meta, msg.NodeID(-1))
	d.sendProbes(et, true, targets)
	if et.pendingAcks == 0 {
		d.finishEviction(et)
	}
}

func (d *Directory) finishEviction(et *txn) {
	if et.dirtyAck {
		// Dirty data pulled back by the backward invalidation is saved
		// through the normal victim path.
		if d.opts.LLCWriteBack {
			d.opts.Recorder.Record(machLLC, "-", "BackInval", "llc-dirty") //proto:when LLCWriteBack //proto:actions insert dirty LLC line pulled back by backward invalidation
			d.llc.insert(et.addr, true)
		} else {
			d.opts.Recorder.Record(machLLC, "-", "BackInval", "llc+mem") //proto:unless LLCWriteBack //proto:actions write pulled-back dirty data to LLC and memory
			d.llc.insert(et.addr, false)
			d.mem.Write(et.addr)
		}
	}
	d.dirArr.Invalidate(et.addr)
	delete(d.txns, et.addr)
	d.installEntry(et.waiting)
	d.drainPending(et.addr)
	// Nothing refers to et any more: every backward-invalidation ack has
	// been counted, an eviction schedules no events, and its d.txns
	// entry is gone.
	d.freeTxns.Put(et)
}

// EntryState reports the tracked state of a line for tests and the
// invariant checker: "I", "S" or "O", plus owner index and sharer mask.
func (d *Directory) EntryState(addr cachearray.LineAddr) (state string, owner int, sharers uint64) {
	if d.dirArr == nil {
		return "untracked", -1, 0
	}
	ln := d.dirArr.Peek(addr)
	if ln == nil {
		return "I", -1, 0
	}
	return ln.Meta.State.String(), int(ln.Meta.Owner), ln.Meta.Sharers
}

// DirOccupancy returns the number of valid directory entries.
func (d *Directory) DirOccupancy() int {
	if d.dirArr == nil {
		return 0
	}
	return d.dirArr.Occupied()
}
