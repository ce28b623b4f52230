package trace

import (
	"strings"
	"testing"

	"hscsim/internal/msg"
)

func TestRoundTrip(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&buf)
	evs := []Event{
		{Tick: 1, Type: "RdBlk", Addr: 0x10, Src: 0, Dst: 6},
		{Tick: 5, Type: "PrbInv", Addr: 0x10, Src: 6, Dst: 1},
		{Tick: 9, Type: "PrbAck", Addr: 0x10, Src: 1, Dst: 6, Dirty: true, HasData: true},
		{Tick: 12, Type: "Resp", Addr: 0x10, Src: 6, Dst: 0, Grant: "S"},
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
}

func TestReadSkipsBlankAndRejectsGarbage(t *testing.T) {
	got, err := Read(strings.NewReader("\n{\"t\":1,\"type\":\"RdBlk\",\"addr\":16,\"src\":0,\"dst\":6}\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFromMessage(t *testing.T) {
	ev := FromMessage(42, msg.Message{Type: msg.PrbAck, Addr: 7, Src: 1, Dst: 6, Dirty: true, HasData: true})
	if ev.Tick != 42 || ev.Type != "PrbAck" || !ev.Dirty || !ev.HasData {
		t.Fatalf("ev = %+v", ev)
	}
	// Grant recorded only on responses; ack flags only on acks.
	ev = FromMessage(1, msg.Message{Type: msg.Resp, Addr: 7, Grant: msg.GrantE, Dirty: true})
	if ev.Grant != "E" || ev.Dirty {
		t.Fatalf("ev = %+v", ev)
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{
		{Tick: 10, Type: "RdBlk", Addr: 1},
		{Tick: 20, Type: "PrbInv", Addr: 1},
		{Tick: 30, Type: "PrbDowngrade", Addr: 2},
		{Tick: 5, Type: "Resp", Addr: 1},
	}
	s := Summarize(evs, 1)
	if s.Messages != 4 || s.FirstTick != 5 || s.LastTick != 30 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ByType["RdBlk"] != 1 || s.ByType["PrbInv"] != 1 {
		t.Fatalf("byType = %v", s.ByType)
	}
	if len(s.HotLines) != 1 || s.HotLines[0].Addr != 1 || s.HotLines[0].Total != 3 || s.HotLines[0].Probes != 1 {
		t.Fatalf("hot = %+v", s.HotLines)
	}
	out := s.String()
	for _, want := range []string{"messages: 4", "RdBlk", "hottest"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestHistory(t *testing.T) {
	evs := []Event{
		{Tick: 1, Addr: 1, Type: "RdBlk"},
		{Tick: 2, Addr: 2, Type: "RdBlk"},
		{Tick: 3, Addr: 1, Type: "Resp"},
	}
	h := History(evs, 1)
	if len(h) != 2 || h[0].Tick != 1 || h[1].Tick != 3 {
		t.Fatalf("history = %+v", h)
	}
}
