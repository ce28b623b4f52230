package trace

import (
	"bytes"
	"reflect"
	"testing"

	"hscsim/internal/msg"
)

// allTypes enumerates every message type; kept in sync with the
// constant block in internal/msg by the count assertion below (a new
// type added there without a trace round-trip shows up as a stale
// count here).
var allTypes = []msg.Type{
	msg.RdBlk, msg.RdBlkS, msg.RdBlkM, msg.VicDirty, msg.VicClean,
	msg.WT, msg.Atomic, msg.Flush, msg.DMARd, msg.DMAWr,
	msg.PrbInv, msg.PrbDowngrade, msg.PrbAck,
	msg.Resp, msg.WBAck, msg.AtomicResp, msg.FlushAck, msg.Unblock,
}

// TestEveryTypeRoundTrips: FromMessage → JSONL write → read must be
// lossless for every message type, including the per-type optional
// fields (probe-ack data/dirty, response grants).
func TestEveryTypeRoundTrips(t *testing.T) {
	seen := make(map[msg.Type]bool)
	for _, typ := range allTypes {
		if seen[typ] {
			t.Fatalf("duplicate type %s in allTypes", typ)
		}
		seen[typ] = true

		m := msg.Message{Type: typ, Addr: 0x1234, Src: 2, Dst: 7}
		switch typ {
		case msg.PrbAck:
			m.HasData = true
			m.Dirty = true
		case msg.Resp:
			m.Grant = msg.GrantM
		default:
		}
		want := FromMessage(42, m)

		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(want); err != nil {
			t.Fatalf("%s: write: %v", typ, err)
		}
		events, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", typ, err)
		}
		if len(events) != 1 || !reflect.DeepEqual(events[0], want) {
			t.Fatalf("%s: round trip = %+v, want %+v", typ, events, want)
		}
		if events[0].Type != typ.String() {
			t.Fatalf("%s: type rendered as %q", typ, events[0].Type)
		}
	}
	// Unblock is the last declared type, so its value + 1 is the type
	// count; a new message type must be added to allTypes (and get a
	// round-trip) or this fails.
	if want := int(msg.Unblock) + 1; len(allTypes) != want {
		t.Fatalf("allTypes covers %d types, msg declares %d", len(allTypes), want)
	}
}
