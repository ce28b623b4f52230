package core

import (
	"strings"
	"testing"

	"hscsim/internal/msg"
)

func roOpts(tracking TrackingMode) Options {
	return Options{Tracking: tracking, ReadOnlyElision: true, LLCWriteBack: true, UseL3OnWT: true}
}

func TestReadOnlyElidesProbesAndTracking(t *testing.T) {
	for _, mode := range []TrackingMode{TrackNone, TrackOwnerSharers} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, roOpts(mode), testGeo())
			r.dir.SetReadOnly([]LineRange{{First: 0x100, Last: 0x1FF}})
			r.l2a.send(msg.RdBlk, 0x150)
			r.l2b.send(msg.RdBlkS, 0x150)
			r.tcc.send(msg.RdBlk, 0x150)
			r.run()
			if got := r.dir.Stats.ProbesSent; got != 0 {
				t.Fatalf("probes = %d, want 0", got)
			}
			if r.l2a.lastResp().Grant != msg.GrantS {
				t.Fatal("read-only reads must be forced Shared")
			}
			if r.dir.Stats.ReadOnlyElided != 3 {
				t.Fatalf("elided = %d, want 3", r.dir.Stats.ReadOnlyElided)
			}
			if mode != TrackNone {
				if st, _, _ := r.entry(0x150); st != "I" {
					t.Fatalf("read-only line tracked as %s", st)
				}
			}
		})
	}
}

func TestReadOnlyLinesOutsideRangesUnaffected(t *testing.T) {
	r := newRig(t, roOpts(TrackNone), testGeo())
	r.dir.SetReadOnly([]LineRange{{First: 0x100, Last: 0x1FF}})
	r.l2a.send(msg.RdBlk, 0x50) // outside the range
	r.run()
	if r.dir.Stats.ProbesSent == 0 {
		t.Fatal("non-read-only line skipped probes")
	}
	if r.l2a.lastResp().Grant != msg.GrantE {
		t.Fatal("non-read-only miss should still grant Exclusive")
	}
}

func TestReadOnlyVicCleanAccepted(t *testing.T) {
	r := newRig(t, roOpts(TrackOwnerSharers), testGeo())
	r.dir.SetReadOnly([]LineRange{{First: 0x100, Last: 0x1FF}})
	r.l2a.send(msg.RdBlk, 0x150)
	r.l2a.send(msg.VicClean, 0x150)
	r.run()
	if r.l2a.lastResp().Type != msg.WBAck {
		t.Fatal("clean victim of a read-only line not acknowledged")
	}
}

func TestReadOnlyWritePanics(t *testing.T) {
	r := newRig(t, roOpts(TrackNone), testGeo())
	r.dir.SetReadOnly([]LineRange{{First: 0x100, Last: 0x1FF}})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("write to a read-only line did not panic")
		}
		v, ok := rec.(*ProtocolViolation)
		if !ok {
			t.Fatalf("panic value %T, want *ProtocolViolation", rec)
		}
		if v.Rule != "read-only" || v.Line != 0x150 {
			t.Fatalf("violation = %v", v)
		}
		if !strings.Contains(v.Error(), "read-only") {
			t.Fatalf("report lacks rule name: %s", v)
		}
	}()
	r.l2a.send(msg.RdBlkM, 0x150)
	r.run()
}

func TestReadOnlyDisabledIgnoresRanges(t *testing.T) {
	r := newRig(t, Options{}, testGeo()) // ReadOnlyElision off
	r.dir.SetReadOnly([]LineRange{{First: 0x100, Last: 0x1FF}})
	r.l2a.send(msg.RdBlk, 0x150)
	r.run()
	if r.dir.Stats.ProbesSent == 0 {
		t.Fatal("ranges must be inert without the option")
	}
}

func TestLineRangeContains(t *testing.T) {
	r := LineRange{First: 10, Last: 20}
	if !r.Contains(10) || !r.Contains(20) || !r.Contains(15) {
		t.Fatal("inclusive bounds broken")
	}
	if r.Contains(9) || r.Contains(21) {
		t.Fatal("out-of-range accepted")
	}
}

func TestOptionsNamedCoversVariants(t *testing.T) {
	cases := map[string]Options{
		"baseline":        {},
		"earlyResp":       {EarlyDirtyResponse: true},
		"noWBcleanVic":    {NoWBCleanVicToMem: true},
		"noWBcleanVicLLC": {NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
		"llcWB":           {LLCWriteBack: true},
		"llcWB+useL3OnWT": {LLCWriteBack: true, UseL3OnWT: true},
		"ownerTracking":   {Tracking: TrackOwner, LLCWriteBack: true},
		"sharersTracking": {Tracking: TrackOwnerSharers},
	}
	for want, opts := range cases {
		if got := opts.Named(); got != want {
			t.Errorf("Named(%+v) = %q, want %q", opts, got, want)
		}
	}
	if TrackNone.String() != "stateless" || TrackOwner.String() != "owner" || TrackOwnerSharers.String() != "owner+sharers" {
		t.Error("TrackingMode strings wrong")
	}
}
