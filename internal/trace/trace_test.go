package trace

import (
	"bytes"
	"errors"
	"slices"
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

// TestSummaryTiesRenderByName: message types with equal counts print in
// name order, so one trace always renders the same summary.
func TestSummaryTiesRenderByName(t *testing.T) {
	names := []string{"Atomic", "PrbAck", "RdBlk", "RdBlkM", "RdBlkS", "Resp", "Unblock", "WT"}
	evs := []Event{{Type: "PrbInv"}, {Type: "PrbInv"}}
	for _, n := range names {
		evs = append(evs, Event{Type: n})
	}
	first := Summarize(evs, 0).String()
	byType := first[strings.Index(first, "by type:"):strings.Index(first, "hottest lines:")]
	var got []string
	for _, line := range strings.Split(byType, "\n")[1:] {
		if f := strings.Fields(line); len(f) == 2 {
			got = append(got, f[0])
		}
	}
	if want := append([]string{"PrbInv"}, names...); !slices.Equal(got, want) {
		t.Fatalf("by-type order = %v, want %v", got, want)
	}
	for i := 0; i < 200; i++ {
		if again := Summarize(evs, 0).String(); again != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, again, first)
		}
	}
}

// TestReadLineCap: a line up to the cap reads; a longer one is an
// error, not a truncation.
func TestReadLineCap(t *testing.T) {
	pad := func(n int) string { return "{" + strings.Repeat(" ", n-2) + "}" }
	if evs, err := Read(strings.NewReader(pad(maxLineBytes-1) + "\n")); err != nil || len(evs) != 1 {
		t.Fatalf("line of %d bytes: %d events, %v", maxLineBytes-1, len(evs), err)
	}
	if _, err := Read(strings.NewReader(pad(maxLineBytes+1) + "\n")); err == nil {
		t.Fatalf("line of %d bytes accepted", maxLineBytes+1)
	}
}

// TestWriterRefusesOverlongLine: an event whose escaped line would
// exceed the cap is refused and writes nothing, though Read accepts the
// unescaped line it came from.
func TestWriterRefusesOverlongLine(t *testing.T) {
	in := `{"type":"` + strings.Repeat("<", maxLineBytes/6) + `"}`
	evs, err := Read(strings.NewReader(in))
	if err != nil || len(evs) != 1 {
		t.Fatalf("Read: %d events, %v", len(evs), err)
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(evs[0]); !errors.Is(err, errLineTooLong) || buf.Len() != 0 {
		t.Fatalf("Write = %v with %d bytes written, want errLineTooLong and nothing", err, buf.Len())
	}
}

// FuzzTraceRead: no input panics Read; a line over the cap is an
// error; and whatever Read accepts re-encodes through Writer and reads
// back equal, unless Writer refuses an event's escaped line as over
// the cap.
func FuzzTraceRead(f *testing.F) {
	f.Add([]byte(`{"t":1,"type":"RdBlk","addr":16,"src":0,"dst":6}` + "\n"))
	f.Add([]byte("\n \n{\"t\":12,\"type\":\"Resp\",\"addr\":16,\"src\":6,\"dst\":0,\"grant\":\"S\"}\r\n" +
		`{"t":9,"type":"PrbAck","addr":16,"src":1,"dst":6,"dirty":true,"data":true}`))
	f.Add([]byte(`{"t":-1,"type":7}`))
	f.Add([]byte(`{"type":"<\u00e9\ufffd>","src":-3,"T":2,"t":5}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > maxLineBytes && err == nil {
				t.Fatalf("a %d-byte line was accepted", len(line))
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, ev := range events {
			if err := w.Write(ev); errors.Is(err, errLineTooLong) {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not read: %v", err)
		}
		if !slices.Equal(again, events) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, again)
		}
	})
}
