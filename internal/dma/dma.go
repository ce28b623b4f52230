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

	rdWaiters map[cachearray.LineAddr][]func() //hsclint:stallqueue — popped by the Resp handler
	wrWaiters map[cachearray.LineAddr][]func() //hsclint:stallqueue — popped by the WBAck handler

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
	e := &Engine{
		engine: engine, ic: ic, id: id, dirID: dirID,
		rdWaiters: make(map[cachearray.LineAddr][]func()),
		wrWaiters: make(map[cachearray.LineAddr][]func()),
	}
	ic.Register(id, e)
	return e
}

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (e *Engine) SetRecorder(r *fsm.Recorder) { e.rec = r }

// ReadBlock issues a DMARd for one line.
func (e *Engine) ReadBlock(line cachearray.LineAddr, done func()) {
	e.rec.Record(machine, "-", "Rd", "-") //proto:actions issue DMARd //proto:emits DMARd
	e.Stats.Reads++
	e.rdWaiters[line] = append(e.rdWaiters[line], done)
	e.ic.Send(msg.Message{Type: msg.DMARd, Addr: line, Src: e.id, Dst: e.dirID})
}

// WriteBlock issues a DMAWr for one line.
func (e *Engine) WriteBlock(line cachearray.LineAddr, done func()) {
	e.rec.Record(machine, "-", "Wr", "-") //proto:actions issue DMAWr //proto:emits DMAWr
	e.Stats.Writes++
	e.wrWaiters[line] = append(e.wrWaiters[line], done)
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
	total := int(last-first) + 1
	next := first
	inflight, finished := 0, 0

	var pump func()
	issue := func() {
		line := next
		next++
		inflight++
		cb := func() {
			inflight--
			finished++
			if finished == total {
				done()
				return
			}
			pump()
		}
		if write {
			e.WriteBlock(line, cb)
		} else {
			e.ReadBlock(line, cb)
		}
	}
	pump = func() {
		for inflight < maxOutstanding && int(next-first) < total {
			issue()
		}
	}
	pump()
}

// Receive implements noc.Handler.
func (e *Engine) Receive(m msg.Message) {
	switch m.Type {
	case msg.Resp:
		e.rec.Record(machine, "-", "Resp", "-") //proto:actions complete oldest read on the line
		e.pop(e.rdWaiters, &m)
	case msg.WBAck:
		e.rec.Record(machine, "-", "WBAck", "-") //proto:actions complete oldest write on the line
		e.pop(e.wrWaiters, &m)
	default:
		panic(fmt.Sprintf("dma: unexpected %s", m))
	}
}

func (e *Engine) pop(w map[cachearray.LineAddr][]func(), m *msg.Message) {
	q := w[m.Addr]
	if len(q) == 0 {
		panic(fmt.Sprintf("dma: stray response %s", *m))
	}
	done := q[0]
	if len(q) == 1 {
		delete(w, m.Addr)
	} else {
		w[m.Addr] = q[1:]
	}
	done()
}

// Outstanding reports in-flight DMA requests (quiesce checks).
func (e *Engine) Outstanding() int { return len(e.rdWaiters) + len(e.wrWaiters) }

// Pending reports the in-flight read and write requests for one line
// (the model checker folds them into its state fingerprint).
func (e *Engine) Pending(line cachearray.LineAddr) (rd, wr int) {
	return len(e.rdWaiters[line]), len(e.wrWaiters[line])
}

// NodeID returns the engine's interconnect node.
func (e *Engine) NodeID() msg.NodeID { return e.id }
