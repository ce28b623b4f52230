package core

import (
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
)

// Table I transition tests: for every (stable state, request) pair the
// paper tabulates, assert the probes issued, the grant, and the
// resulting directory state.

func ownerOpts() Options {
	return Options{Tracking: TrackOwner, LLCWriteBack: true, UseL3OnWT: true}
}

func sharersOpts() Options {
	return Options{Tracking: TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}
}

func TestTableI_I_RdBlk(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlk, 0x10)
	r.run()
	// State I: no probes at all; grant Exclusive; directory goes O
	// (conservative: E can silently become M).
	if len(r.l2b.probes)+len(r.tcc.probes) != 0 {
		t.Fatal("I-state read must not probe")
	}
	if r.l2a.lastResp().Grant != msg.GrantE {
		t.Fatalf("grant = %s, want E", r.l2a.lastResp().Grant)
	}
	st, owner, _ := r.entry(0x10)
	if st != "O" || owner != 0 {
		t.Fatalf("entry = %s owner=%d, want O owner=0", st, owner)
	}
}

func TestTableI_I_RdBlkS(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkS, 0x10)
	r.run()
	st, _, sharers := r.entry(0x10)
	if st != "S" || sharers != 1<<0 {
		t.Fatalf("entry = %s sharers=%b, want S with sharer 0", st, sharers)
	}
	if r.l2a.lastResp().Grant != msg.GrantS {
		t.Fatal("RdBlkS must grant S")
	}
}

func TestTableI_I_RdBlkM(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.run()
	if len(r.l2b.probes)+len(r.tcc.probes) != 0 {
		t.Fatal("I-state write must not probe")
	}
	st, owner, _ := r.entry(0x10)
	if st != "O" || owner != 0 {
		t.Fatalf("entry = %s owner=%d, want O owner=0", st, owner)
	}
	if r.l2a.lastResp().Grant != msg.GrantM {
		t.Fatal("RdBlkM must grant M")
	}
}

func TestTableI_I_RdBlkFromTCC(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.tcc.send(msg.RdBlk, 0x10)
	r.run()
	// The TCC ignores Exclusive grants, so the directory records a
	// Shared line with the TCC registered (probe-target index 2).
	st, _, sharers := r.entry(0x10)
	if st != "S" || sharers != 1<<2 {
		t.Fatalf("entry = %s sharers=%b, want S with TCC sharer", st, sharers)
	}
	if len(r.l2a.probes)+len(r.l2b.probes) != 0 {
		t.Fatal("unexpected probes")
	}
	if r.tcc.lastResp().Type != msg.Resp {
		t.Fatal("TCC read not answered")
	}
}

func TestTableI_S_RdBlkForcedShared(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkS, 0x10) // → S{0}
	r.l2b.send(msg.RdBlk, 0x10)
	r.run()
	// S-state reads are served from the LLC/memory without probes and
	// are forced to a Shared grant (never Exclusive).
	if len(r.l2a.probes) != 0 {
		t.Fatal("S-state read must not probe the sharers")
	}
	if r.l2b.lastResp().Grant != msg.GrantS {
		t.Fatalf("grant = %s, want forced S", r.l2b.lastResp().Grant)
	}
	st, _, sharers := r.entry(0x10)
	if st != "S" || sharers != 0b11 {
		t.Fatalf("entry = %s sharers=%b, want S{0,1}", st, sharers)
	}
}

func TestTableI_S_RdBlkM_MulticastVsBroadcast(t *testing.T) {
	// Sharer tracking: invalidations go only to registered sharers.
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkS, 0x10)
	r.l2b.send(msg.RdBlkM, 0x10)
	r.run()
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbInv {
		t.Fatalf("sharer l2a probes = %v", r.l2a.probes)
	}
	if len(r.tcc.probes) != 0 {
		t.Fatal("multicast must skip non-sharers (TCC)")
	}
	st, owner, sharers := r.entry(0x10)
	if st != "O" || owner != 1 || sharers != 0 {
		t.Fatalf("entry = %s owner=%d sharers=%b", st, owner, sharers)
	}

	// Owner-only tracking: the sharer list is unknown → broadcast.
	r2 := newRig(t, ownerOpts(), testGeo())
	r2.l2a.send(msg.RdBlkS, 0x10)
	r2.l2b.send(msg.RdBlkM, 0x10)
	r2.run()
	if len(r2.l2a.probes) != 1 || len(r2.tcc.probes) != 1 {
		t.Fatalf("owner-mode probes l2a=%d tcc=%d, want broadcast", len(r2.l2a.probes), len(r2.tcc.probes))
	}
}

func TestTableI_O_RdBlkProbesOwnerOnly(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10) // l2a owns
	r.run()
	r.l2a.hasLine[0x10] = true // dirty at the owner
	memReadsBefore := r.mem.Stats.Reads
	r.l2b.send(msg.RdBlk, 0x10)
	r.run()
	// Only the owner is probed; the LLC read is elided entirely.
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbDowngrade {
		t.Fatalf("owner probes = %v", r.l2a.probes)
	}
	if len(r.tcc.probes) != 0 {
		t.Fatal("O-state read must not probe non-owners")
	}
	if r.mem.Stats.Reads != memReadsBefore {
		t.Fatal("O-state read must elide the LLC/memory read")
	}
	resp := r.l2b.lastResp()
	if resp.Grant != msg.GrantS || !resp.FromCache {
		t.Fatalf("grant = %s fromCache=%v, want S from cache", resp.Grant, resp.FromCache)
	}
	// Dirty ack (footnote h): the owner keeps the line dirty; the
	// requester becomes a (dirty) sharer; the entry stays O.
	st, owner, sharers := r.entry(0x10)
	if st != "O" || owner != 0 || sharers != 1<<1 {
		t.Fatalf("entry = %s owner=%d sharers=%b, want O owner=0 sharers={1}", st, owner, sharers)
	}
}

func TestTableI_O_RdBlkCleanAckDowngradesToS(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.hasLine[0x10] = false // Exclusive, never written (footnote f)
	r.l2b.send(msg.RdBlk, 0x10)
	r.run()
	st, _, sharers := r.entry(0x10)
	if st != "S" || sharers != 0b11 {
		t.Fatalf("entry = %s sharers=%b, want S{0,1}", st, sharers)
	}
}

func TestTableI_O_RdBlkM_TransfersOwnership(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.hasLine[0x10] = true
	r.l2b.send(msg.RdBlkM, 0x10)
	r.run()
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbInv {
		t.Fatalf("old owner probes = %v", r.l2a.probes)
	}
	st, owner, sharers := r.entry(0x10)
	if st != "O" || owner != 1 || sharers != 0 {
		t.Fatalf("entry = %s owner=%d sharers=%b, want O owner=1", st, owner, sharers)
	}
	if _, still := r.l2a.hasLine[0x10]; still {
		t.Fatal("old owner's copy not invalidated")
	}
}

func TestTableI_O_UpgradeFromOwnerProbesSharersOnly(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	// Build O owner=0 with sharer 1: owner reads M, dirty, then l2b reads.
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.hasLine[0x10] = true
	r.l2b.send(msg.RdBlk, 0x10)
	// Owner upgrades again (store to an Owned line → RdBlkM, footnote-
	// adjacent case: requester == owner).
	r.l2a.send(msg.RdBlkM, 0x10)
	r.run()
	// The upgrade invalidates only the sharer, not the owner itself.
	if len(r.l2b.probes) != 1 || r.l2b.probes[0].Type != msg.PrbInv {
		t.Fatalf("sharer probes = %v", r.l2b.probes)
	}
	st, owner, sharers := r.entry(0x10)
	if st != "O" || owner != 0 || sharers != 0 {
		t.Fatalf("entry = %s owner=%d sharers=%b, want O owner=0 no sharers", st, owner, sharers)
	}
}

func TestTableI_VicDirtyFromOwner(t *testing.T) {
	// Without sharers: entry deallocates to I.
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.send(msg.VicDirty, 0x10)
	r.run()
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I after lone owner's dirty victim", st)
	}
	if !r.dir.LLCDirty(0x10) {
		t.Fatal("dirty victim must land dirty in the write-back LLC")
	}

	// With dirty sharers: the written-back data makes them coherent
	// with the LLC → entry becomes S.
	r2 := newRig(t, sharersOpts(), testGeo())
	r2.l2a.send(msg.RdBlkM, 0x10)
	r2.l2a.hasLine[0x10] = true
	r2.l2b.send(msg.RdBlk, 0x10) // dirty sharer
	r2.l2a.send(msg.VicDirty, 0x10)
	r2.run()
	st, _, sharers := r2.entry(0x10)
	if st != "S" || sharers != 1<<1 {
		t.Fatalf("entry = %s sharers=%b, want S{1}", st, sharers)
	}
}

func TestTableI_VicDirtyFromNonOwnerDropped(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10) // l2a owns
	llcWrites := r.dir.LLCStats().Writes
	r.l2b.send(msg.VicDirty, 0x10) // stale victim from a non-owner
	r.run()
	if got := r.dir.LLCStats().Writes; got != llcWrites {
		t.Fatal("stale victim wrote the LLC")
	}
	if r.dir.Stats.StaleVictims != 1 {
		t.Fatal("stale victim not counted")
	}
	st, owner, _ := r.entry(0x10)
	if st != "O" || owner != 0 {
		t.Fatalf("entry = %s owner=%d, ownership must be unaffected", st, owner)
	}
}

func TestTableI_VicCleanRemovesSharer(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkS, 0x10)
	r.l2b.send(msg.RdBlkS, 0x10)
	r.l2a.send(msg.VicClean, 0x10)
	r.run()
	st, _, sharers := r.entry(0x10)
	if st != "S" || sharers != 1<<1 {
		t.Fatalf("entry = %s sharers=%b, want S{1}", st, sharers)
	}

	// Last sharer leaving deallocates the entry.
	r.l2b.send(msg.VicClean, 0x10)
	r.run()
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I after last sharer left", st)
	}
}

func TestTableI_VicCleanFromExclusiveOwner(t *testing.T) {
	// Footnote g: an O-state line can send VicClean when the L2 held it
	// Exclusive (and never wrote it).
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlk, 0x10) // granted E → dir O
	r.l2a.send(msg.VicClean, 0x10)
	r.run()
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I", st)
	}
	if r.dir.LLCDirty(0x10) {
		t.Fatal("clean victim must not set the LLC dirty bit")
	}
}

func TestTableI_WTRetainKeepsTCCSharer(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkS, 0x10)
	r.tcc.ic.Send(msg.Message{Type: msg.WT, Addr: 0x10, Src: r.tcc.id, Dst: 4, Retain: true})
	r.run()
	// The CPU sharer is invalidated; the write-through TCC keeps a
	// valid copy and is tracked as the only sharer.
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbInv {
		t.Fatalf("l2a probes = %v", r.l2a.probes)
	}
	st, _, sharers := r.entry(0x10)
	if st != "S" || sharers != 1<<2 {
		t.Fatalf("entry = %s sharers=%b, want S{TCC}", st, sharers)
	}
}

func TestTableI_WTWritebackDeallocates(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.tcc.send(msg.RdBlk, 0x10) // S{TCC}
	r.tcc.ic.Send(msg.Message{Type: msg.WT, Addr: 0x10, Src: r.tcc.id, Dst: 4, Retain: false})
	r.run()
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I after a write-back WT", st)
	}
}

func TestTableI_AtomicInvalidatesAndDeallocates(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.hasLine[0x10] = true
	r.tcc.ic.Send(msg.Message{
		Type: msg.Atomic, Addr: 0x10, Src: r.tcc.id, Dst: 4,
		AOp: 0 /* Add */, WordAddr: 0x10 * 64, Operand: 3,
	})
	r.run()
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbInv {
		t.Fatalf("owner probes = %v", r.l2a.probes)
	}
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I after system atomic", st)
	}
	if r.fm.Read(0x10*64) != 3 {
		t.Fatal("atomic did not execute")
	}
}

func TestTableI_DMARdProbesOwnerOnly(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.hasLine[0x10] = true
	r.dma.send(msg.DMARd, 0x10)
	r.run()
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbDowngrade {
		t.Fatalf("owner probes = %v", r.l2a.probes)
	}
	if len(r.l2b.probes)+len(r.tcc.probes) != 0 {
		t.Fatal("tracked DMA read must probe only the owner")
	}
	// DMA does not alter tracking (the owner's M→O downgrade aside).
	st, owner, _ := r.entry(0x10)
	if st != "O" || owner != 0 {
		t.Fatalf("entry = %s owner=%d", st, owner)
	}
}

func TestTableI_DMARdUntrackedProbesNobody(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.dma.send(msg.DMARd, 0x99)
	r.run()
	if len(r.l2a.probes)+len(r.l2b.probes)+len(r.tcc.probes) != 0 {
		t.Fatal("untracked DMA read must not probe (inclusive directory)")
	}
}

func TestTableI_DMAWrInvalidatesAndDeallocates(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	r.l2a.send(msg.RdBlkS, 0x10)
	r.dma.send(msg.DMAWr, 0x10)
	r.run()
	if len(r.l2a.probes) != 1 || r.l2a.probes[0].Type != msg.PrbInv {
		t.Fatalf("sharer probes = %v", r.l2a.probes)
	}
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I after DMA write", st)
	}
}

func TestDirectoryEvictionBackwardInvalidation(t *testing.T) {
	// 1 directory set of 2 ways: a third tracked line evicts one entry
	// with backward invalidations.
	geo := Geometry{LLCSizeBytes: 16 << 10, LLCAssoc: 4, DirEntries: 2, DirAssoc: 2, BlockSize: 64}
	r := newRig(t, sharersOpts(), geo)
	r.l2a.send(msg.RdBlkM, 0x10)
	r.l2a.hasLine[0x10] = true
	r.l2a.send(msg.RdBlkM, 0x20)
	r.l2a.hasLine[0x20] = true
	r.l2a.send(msg.RdBlkM, 0x30) // set full → evict one
	r.run()

	if r.dir.Stats.EntryEvictions != 1 {
		t.Fatalf("entry evictions = %d, want 1", r.dir.Stats.EntryEvictions)
	}
	if r.dir.Stats.BackwardInvalProbes == 0 {
		t.Fatal("no backward invalidation probes sent")
	}
	// Exactly one of the first two lines was evicted; its dirty data
	// must have been pulled into the LLC, and inclusion must hold: the
	// L2 no longer has the evicted line.
	evicted := cachearray.LineAddr(0x10)
	if st, _, _ := r.entry(0x10); st != "I" {
		evicted = 0x20
		if st2, _, _ := r.entry(0x20); st2 != "I" {
			t.Fatal("no entry was evicted")
		}
	}
	if _, still := r.l2a.hasLine[evicted]; still {
		t.Fatal("backward invalidation did not reach the L2")
	}
	if !r.dir.LLCDirty(evicted) {
		t.Fatal("evicted entry's dirty data not saved to the LLC")
	}
	if st, _, _ := r.entry(0x30); st != "O" {
		t.Fatalf("new entry = %s, want O", st)
	}
}

func TestLimitedPointerOverflowBroadcasts(t *testing.T) {
	opts := sharersOpts()
	opts.LimitedPointers = 1
	r := newRig(t, opts, testGeo())
	r.l2a.send(msg.RdBlkS, 0x10)
	r.l2b.send(msg.RdBlkS, 0x10) // overflows the 1-entry list
	r.tcc.send(msg.RdBlk, 0x10)  // also untracked
	// A write-permission request must now broadcast.
	r.l2a.send(msg.RdBlkM, 0x10)
	r.run()
	if len(r.l2b.probes) != 1 {
		t.Fatalf("l2b probes = %d, want 1", len(r.l2b.probes))
	}
	if len(r.tcc.probes) != 1 {
		t.Fatal("overflowed list must fall back to broadcast (fn. b)")
	}
}

func TestFewestSharersReplacementPrefersCleanFewest(t *testing.T) {
	opts := sharersOpts()
	opts.DirRepl = DirReplFewestSharers
	geo := Geometry{LLCSizeBytes: 16 << 10, LLCAssoc: 4, DirEntries: 2, DirAssoc: 2, BlockSize: 64}
	r := newRig(t, opts, geo)
	// Entry 0x10: O (modified) — should be deprioritized.
	r.l2a.send(msg.RdBlkM, 0x10)
	r.run()
	r.l2a.hasLine[0x10] = true
	// Entry 0x20: S with one sharer — preferred victim.
	r.l2b.send(msg.RdBlkS, 0x20)
	r.run()
	// Force an eviction (quiesced, so no entry is transaction-pinned).
	r.l2a.send(msg.RdBlkS, 0x30)
	r.run()
	if st, _, _ := r.entry(0x20); st != "I" {
		t.Fatalf("S entry survived (= %s); fewest-sharers policy should pick it", st)
	}
	if st, _, _ := r.entry(0x10); st != "O" {
		t.Fatalf("O entry evicted (= %s)", st)
	}
}

func TestKeepDirtySharersOnEvict(t *testing.T) {
	opts := sharersOpts()
	opts.KeepDirtySharersOnEvict = true
	r := newRig(t, opts, testGeo())
	r.l2a.send(msg.RdBlkM, 0x10)
	r.run()
	r.l2a.hasLine[0x10] = true
	r.l2b.send(msg.RdBlk, 0x10) // becomes a dirty sharer
	r.run()
	r.l2b.hasLine[0x10] = true // fakes don't install lines on fills
	r.l2b.probes = nil
	r.l2a.send(msg.VicDirty, 0x10)
	r.run()
	// §VII: the entry deallocates without invalidating the dirty sharer.
	if st, _, _ := r.entry(0x10); st != "I" {
		t.Fatalf("entry = %s, want I (deallocated)", st)
	}
	if len(r.l2b.probes) != 0 {
		t.Fatal("dirty sharer must not be invalidated")
	}
	if _, still := r.l2b.hasLine[0x10]; !still {
		t.Fatal("sharer lost its line")
	}
}

func TestTrackedProbeFreeTransactionsCounted(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	for i := 0; i < 5; i++ {
		r.l2a.send(msg.RdBlk, cachearray.LineAddr(0x100+i))
	}
	r.run()
	if got := r.dir.Stats.ProbeFreeTransactions; got != 5 {
		t.Fatalf("probe-free transactions = %d, want 5", got)
	}
	if r.dir.Stats.ProbesSent != 0 {
		t.Fatalf("probes = %d, want 0", r.dir.Stats.ProbesSent)
	}
}

func TestDirOccupancy(t *testing.T) {
	r := newRig(t, sharersOpts(), testGeo())
	if r.dir.DirOccupancy() != 0 {
		t.Fatal("fresh directory not empty")
	}
	r.l2a.send(msg.RdBlk, 0x1)
	r.l2a.send(msg.RdBlk, 0x2)
	r.run()
	if r.dir.DirOccupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", r.dir.DirOccupancy())
	}
	// Stateless directories report zero occupancy.
	r2 := newRig(t, Options{}, testGeo())
	if r2.dir.DirOccupancy() != 0 {
		t.Fatal("stateless directory should report 0")
	}
	if st, _, _ := r2.entry(0x1); st != "untracked" {
		t.Fatalf("stateless entry state = %s", st)
	}
}
