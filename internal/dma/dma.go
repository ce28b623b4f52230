// Package dma models the DMA engine attached to the system-level
// directory (§II-E). DMA reads and writes are line-granular requests
// handled by the directory's DMA state machine (Fig. 3): in the
// baseline they broadcast probes; DMA writes additionally probe the GPU
// caches. DMA engines do not cache lines and do not participate in
// coherence.
package dma

import (
	"fmt"

	"hscsim/internal/cachearray"
	"hscsim/internal/fsm"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/recycle"
	"hscsim/internal/sim"
)

// machine names the DMA engine's request state machine in the
// transition tables extracted by internal/proto. The engine caches
// nothing, so every event is state-independent ("-").
const machine = "dma.engine"

// Engine is the DMA engine.
type Engine struct {
	engine *sim.Engine
	ic     noc.Fabric
	id     msg.NodeID
	dirID  msg.NodeID

	// Per-line completion FIFOs: a Resp completes the line's oldest
	// read, a WBAck its oldest write.
	rdWaiters recycle.Queues[cachearray.LineAddr, func()]
	wrWaiters recycle.Queues[cachearray.LineAddr, func()]

	// rec records fired protocol transitions for the static-vs-dynamic
	// cross-check (cmd/hscproto); nil (the default) disables recording.
	rec *fsm.Recorder

	Stats Stats
}

// Stats are the DMA engine's counters.
type Stats struct {
	Reads  uint64 `stat:"reads"`
	Writes uint64 `stat:"writes"`
}

// New creates a DMA engine at node id.
func New(engine *sim.Engine, ic noc.Fabric, id, dirID msg.NodeID) *Engine {
	e := &Engine{engine: engine, ic: ic, id: id, dirID: dirID}
	ic.Register(id, e)
	e.Reset()
	return e
}

// Reset returns the engine to its just-constructed state: no request
// in flight and zero counters. It keeps its wiring and storage.
func (e *Engine) Reset() {
	e.rdWaiters.Reset()
	e.wrWaiters.Reset()
	e.Stats = Stats{}
}

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (e *Engine) SetRecorder(r *fsm.Recorder) { e.rec = r }

// ReadBlock issues a DMARd for one line.
func (e *Engine) ReadBlock(line cachearray.LineAddr, done func()) {
	e.rec.Record(machine, "-", "Rd", "-") //proto:actions issue DMARd //proto:emits DMARd
	e.Stats.Reads++
	e.rdWaiters.Push(line, done)
	e.ic.Send(msg.Message{Type: msg.DMARd, Addr: line, Src: e.id, Dst: e.dirID})
}

// WriteBlock issues a DMAWr for one line.
func (e *Engine) WriteBlock(line cachearray.LineAddr, done func()) {
	e.rec.Record(machine, "-", "Wr", "-") //proto:actions issue DMAWr //proto:emits DMAWr
	e.Stats.Writes++
	e.wrWaiters.Push(line, done)
	e.ic.Send(msg.Message{Type: msg.DMAWr, Addr: line, Src: e.id, Dst: e.dirID})
}

// Stream transfers length bytes starting at byte address base, keeping
// up to maxOutstanding line requests in flight; done fires when the
// last line completes.
func (e *Engine) Stream(base uint64, length int, write bool, maxOutstanding int, done func()) {
	if maxOutstanding <= 0 {
		maxOutstanding = 8
	}
	first := cachearray.LineAddr(base >> 6)
	last := cachearray.LineAddr((base + uint64(length) - 1) >> 6)
	s := &stream{e: e, next: first, end: last + 1, write: write, max: maxOutstanding,
		left: int(last-first) + 1, done: done}
	s.lineDone = s.completeLine
	s.pump()
}

// stream is one Stream call in flight. Every line request completes
// through lineDone, bound once per stream.
type stream struct {
	e         *Engine
	next, end cachearray.LineAddr // lines [next, end) are not yet issued
	write     bool
	max       int // requests kept in flight
	inflight  int
	left      int // lines not yet completed
	done      func()
	lineDone  func()
}

// pump issues lines until max are in flight or none is left.
func (s *stream) pump() {
	for s.inflight < s.max && s.next < s.end {
		line := s.next
		s.next++
		s.inflight++
		if s.write {
			s.e.WriteBlock(line, s.lineDone)
		} else {
			s.e.ReadBlock(line, s.lineDone)
		}
	}
}

func (s *stream) completeLine() {
	s.inflight--
	s.left--
	if s.left == 0 {
		s.done()
		return
	}
	s.pump()
}

// Receive implements noc.Handler.
func (e *Engine) Receive(m msg.Message) {
	var done func()
	var ok bool
	switch m.Type {
	case msg.Resp:
		e.rec.Record(machine, "-", "Resp", "-") //proto:actions complete oldest read on the line
		done, ok = e.rdWaiters.Pop(m.Addr)
	case msg.WBAck:
		e.rec.Record(machine, "-", "WBAck", "-") //proto:actions complete oldest write on the line
		done, ok = e.wrWaiters.Pop(m.Addr)
	default:
		panic(fmt.Sprintf("dma: unexpected %s", m))
	}
	if !ok {
		panic(fmt.Sprintf("dma: stray response %s", m))
	}
	done()
}

// Outstanding counts the lines with a read pending plus the lines with
// a write pending, not the requests; it is zero exactly when nothing is
// in flight (quiesce checks).
func (e *Engine) Outstanding() int { return e.rdWaiters.Len() + e.wrWaiters.Len() }

// Pending reports the in-flight read and write requests for one line
// (the model checker folds them into its state fingerprint).
func (e *Engine) Pending(line cachearray.LineAddr) (rd, wr int) {
	return len(e.rdWaiters.At(line)), len(e.wrWaiters.At(line))
}

// NodeID returns the engine's interconnect node.
func (e *Engine) NodeID() msg.NodeID { return e.id }
