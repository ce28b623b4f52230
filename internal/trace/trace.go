// Package trace records and analyzes coherence-message traces.
//
// The paper's stated goal is "to reduce the barriers to entry into
// Heterogeneous Systems research"; a readable protocol trace is the
// first debugging tool such research needs. Every interconnect message
// can be streamed as one JSON object per line, and the analyzer
// summarizes traffic by message type and by hottest cache lines.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"hscsim/internal/msg"
	"hscsim/internal/sim"
)

// Event is one interconnect message.
type Event struct {
	Tick    uint64 `json:"t"`
	Type    string `json:"type"`
	Addr    uint64 `json:"addr"`
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Dirty   bool   `json:"dirty,omitempty"`
	HasData bool   `json:"data,omitempty"`
	Grant   string `json:"grant,omitempty"`
}

// FromMessage converts an interconnect message at a tick.
func FromMessage(t sim.Tick, m msg.Message) Event {
	ev := Event{
		Tick: uint64(t),
		Type: m.Type.String(),
		Addr: uint64(m.Addr),
		Src:  int(m.Src),
		Dst:  int(m.Dst),
	}
	if m.Type == msg.PrbAck {
		ev.Dirty = m.Dirty
		ev.HasData = m.HasData
	}
	if m.Type == msg.Resp && m.Grant != msg.GrantNone {
		ev.Grant = m.Grant.String()
	}
	return ev
}

// maxLineBytes caps one trace line, newline included: Read fails on a
// longer line and Writer refuses to write one.
const maxLineBytes = 1 << 20

var errLineTooLong = errors.New("trace: line too long")

// Writer streams events as JSON lines.
type Writer struct {
	w   io.Writer
	buf bytes.Buffer
	enc *json.Encoder // encodes into buf
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: w}
	tw.enc = json.NewEncoder(&tw.buf)
	return tw
}

// Write emits one event. An event whose line would exceed the cap Read
// enforces (escaping can grow a string sixfold) is refused, so Read
// reads back everything Write writes.
func (w *Writer) Write(ev Event) error {
	w.buf.Reset()
	if err := w.enc.Encode(ev); err != nil {
		return err
	}
	if n := w.buf.Len(); n > maxLineBytes {
		return fmt.Errorf("%w: event encodes to %d bytes, over %d", errLineTooLong, n, maxLineBytes)
	}
	_, err := w.w.Write(w.buf.Bytes())
	return err
}

// Read parses a JSONL trace.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// LineCount is traffic attributed to one cache line.
type LineCount struct {
	Addr   uint64
	Total  int
	Probes int
}

// Summary aggregates a trace.
type Summary struct {
	Messages  int
	FirstTick uint64
	LastTick  uint64
	ByType    map[string]int
	HotLines  []LineCount // sorted by Total, descending
}

// Summarize aggregates events; topN bounds HotLines (0 means 10).
func Summarize(events []Event, topN int) Summary {
	if topN <= 0 {
		topN = 10
	}
	s := Summary{ByType: make(map[string]int)}
	perLine := make(map[uint64]*LineCount)
	for i, ev := range events {
		s.Messages++
		if i == 0 || ev.Tick < s.FirstTick {
			s.FirstTick = ev.Tick
		}
		if ev.Tick > s.LastTick {
			s.LastTick = ev.Tick
		}
		s.ByType[ev.Type]++
		lc := perLine[ev.Addr]
		if lc == nil {
			lc = &LineCount{Addr: ev.Addr}
			perLine[ev.Addr] = lc
		}
		lc.Total++
		if ev.Type == "PrbInv" || ev.Type == "PrbDowngrade" {
			lc.Probes++
		}
	}
	for _, lc := range perLine { //hsclint:deterministic — sorted by (Total, Addr) below
		s.HotLines = append(s.HotLines, *lc)
	}
	sort.Slice(s.HotLines, func(i, j int) bool {
		if s.HotLines[i].Total != s.HotLines[j].Total {
			return s.HotLines[i].Total > s.HotLines[j].Total
		}
		return s.HotLines[i].Addr < s.HotLines[j].Addr
	})
	if len(s.HotLines) > topN {
		s.HotLines = s.HotLines[:topN]
	}
	return s
}

// String renders the summary.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "messages: %d over ticks [%d, %d]\n", s.Messages, s.FirstTick, s.LastTick)
	types := make([]string, 0, len(s.ByType))
	for t := range s.ByType { //hsclint:deterministic — sorted by (count, name) below
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if ci, cj := s.ByType[types[i]], s.ByType[types[j]]; ci != cj {
			return ci > cj
		}
		return types[i] < types[j]
	})
	fmt.Fprintf(&b, "by type:\n")
	for _, t := range types {
		fmt.Fprintf(&b, "  %-14s %8d\n", t, s.ByType[t])
	}
	fmt.Fprintf(&b, "hottest lines:\n")
	for _, lc := range s.HotLines {
		fmt.Fprintf(&b, "  line %#010x  %6d msgs  %5d probes\n", lc.Addr, lc.Total, lc.Probes)
	}
	return b.String()
}

// History extracts the time-ordered events touching one line — the
// per-line coherence history a protocol debugger wants.
func History(events []Event, addr uint64) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Addr == addr {
			out = append(out, ev)
		}
	}
	return out
}
