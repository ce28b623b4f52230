package core

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
)

// Read-only region elision (§IX future work: "investigation of the
// advantages of not tracking certain read-only memory pages and
// accesses that are guaranteed to be read-only").
//
// Workloads declare address ranges that are never written during the
// region of interest (model weights, encoded inputs — the access
// pattern §III-B1 motivates). For lines inside such ranges the
// directory elides all probes and, in tracking modes, never allocates
// entries: the LLC/memory is coherent by construction. Reads are forced
// to a Shared grant so no cache ever holds such a line Exclusive. Any
// write-permission request to a read-only line is a violated guarantee
// and panics loudly.

// LineRange is an inclusive range of cache-line addresses.
type LineRange struct {
	First, Last cachearray.LineAddr
}

// Contains reports whether line falls in the range.
func (r LineRange) Contains(line cachearray.LineAddr) bool {
	return line >= r.First && line <= r.Last
}

// SetReadOnly installs the read-only line ranges. Only consulted when
// Options.ReadOnlyElision is set.
func (d *Directory) SetReadOnly(ranges []LineRange) {
	d.roRanges = append(d.roRanges[:0], ranges...)
}

func (d *Directory) isReadOnly(line cachearray.LineAddr) bool {
	if !d.opts.ReadOnlyElision {
		return false
	}
	for _, r := range d.roRanges {
		if r.Contains(line) {
			return true
		}
	}
	return false
}

// beginReadOnly handles any request for a read-only line.
func (d *Directory) beginReadOnly(t *txn) {
	m := &t.req
	switch m.Type {
	case msg.RdBlk, msg.RdBlkS, msg.DMARd:
		d.opts.Recorder.Record(machRO, "-", m.Type.String(), "-") //proto:events RdBlk,RdBlkS,DMARd //proto:actions elide probes and tracking, serve LLC/mem Shared //proto:emits Resp
		d.Stats.ReadOnlyElided++
		t.forceShared = true
		t.needData = true
		t.needUnblock = m.Type != msg.DMARd && !d.isTCC(m.Src)
		d.sendProbes(t, false, nil)
		d.issueRead(t)
		d.maybeProgress(t)

	case msg.VicClean:
		// An L2 evicting its Shared copy of a read-only line: the data
		// is coherent; apply the normal clean-victim policy.
		d.opts.Recorder.Record(machRO, "-", "VicClean", "-") //proto:actions normal clean-victim policy (dir.llc), WBAck //proto:emits WBAck
		d.commitVictim(t, false)
		d.respondAndFinish(t, msg.WBAck)

	default:
		d.violate("read-only", t.addr, t.id, *m, "write-class request to a declared read-only line — the workload violated its guarantee")
	}
}
