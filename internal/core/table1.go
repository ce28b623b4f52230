package core

import (
	"fmt"
	"sort"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/memctrl"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/recycle"
	"hscsim/internal/sim"
)

// This file regenerates the paper's Table I — the state-transition
// table of the sharer-tracking directory — by *executing* the
// implementation: for every (stable state, request) pair a fresh
// miniature system is driven into the start state, the request is
// issued, and the probes, grant and successor state are observed.
// The table printed is therefore the implemented machine, not prose.

// TransitionRow is one observed Table I transition.
type TransitionRow struct {
	Start   string // directory state before (with holders)
	Request string // request and requester
	Probes  string // probes issued and their targets
	Grant   string // grant in the response ("-" for non-read requests)
	Next    string // directory state after (with tracked holders)
}

// t1cache is a minimal scripted cache endpoint for table generation.
type t1cache struct {
	ic      *noc.Interconnect
	id      msg.NodeID
	dirID   msg.NodeID
	name    string
	isTCC   bool
	hasLine recycle.Table[cachearray.LineAddr, bool] // line → dirty

	probed []string
	grant  msg.Grant
}

func (c *t1cache) Receive(m msg.Message) {
	switch m.Type {
	case msg.PrbInv, msg.PrbDowngrade:
		kind := "inv"
		if m.Type == msg.PrbDowngrade {
			kind = "down"
		}
		c.probed = append(c.probed, kind)
		ack := msg.Message{Type: msg.PrbAck, Addr: m.Addr, Src: c.id, Dst: m.Src, TxnID: m.TxnID}
		if dirty, ok := c.hasLine.Get(m.Addr); ok && !c.isTCC {
			ack.HasData = true
			ack.Dirty = dirty
		}
		if m.Type == msg.PrbInv {
			c.hasLine.Delete(m.Addr)
		}
		c.ic.Send(ack)
	case msg.Resp:
		c.grant = m.Grant
		if !c.isTCC {
			c.ic.Send(msg.Message{Type: msg.Unblock, Addr: m.Addr, Src: c.id, Dst: m.Src, TxnID: m.TxnID})
		}
	case msg.WBAck, msg.AtomicResp, msg.FlushAck:
	default:
		// The Table 1 rig never receives requests or raw data messages.
	}
}

// t1rig is the miniature system: two L2s, one TCC, one DMA, one
// sharer-tracking directory.
type t1rig struct {
	e    *sim.Engine
	ic   *noc.Interconnect
	dir  *Directory
	l2a  *t1cache
	l2b  *t1cache
	tcc  *t1cache
	dma  *t1cache
	line cachearray.LineAddr
}

func newT1() *t1rig {
	e := sim.NewEngine()
	e.MaxTicks = 1_000_000
	ic := noc.New(e, noc.Config{Latency: 2})
	mem := memctrl.New(e, memctrl.Config{Latency: 20, CyclesPerAccess: 1})
	fm := memdata.New()

	mk := func(id msg.NodeID, name string, isTCC bool) *t1cache {
		c := &t1cache{ic: ic, id: id, dirID: 4, name: name, isTCC: isTCC}
		ic.Register(id, c)
		return c
	}
	r := &t1rig{
		e: e, ic: ic, line: 0x40,
		l2a: mk(0, "L2a", false),
		l2b: mk(1, "L2b", false),
		tcc: mk(2, "TCC", true),
		dma: mk(3, "DMA", false),
	}
	r.dma.isTCC = true // never unblocks
	r.dir = NewDirectory(e, ic, mem, fm, DirectoryConfig{
		ID: 4, L2s: []msg.NodeID{0, 1}, TCCs: []msg.NodeID{2},
		Opts:   Options{Tracking: TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
		Timing: Timing{DirLatency: 2, LLCLatency: 2},
		Geo:    Geometry{LLCSizeBytes: 16 << 10, LLCAssoc: 4, DirEntries: 64, DirAssoc: 4},
	})
	ic.Register(4, r.dir)
	return r
}

func (r *t1rig) run() {
	if err := r.e.Run(); err != nil {
		panic(fmt.Sprintf("core: Table I generation: %v", err))
	}
}

func (r *t1rig) send(src *t1cache, typ msg.Type, retain bool) {
	m := msg.Message{Type: typ, Addr: r.line, Src: src.id, Dst: 4, Retain: retain}
	if typ == msg.Atomic {
		m.WordAddr = memdata.Addr(r.line) * 64
	}
	r.ic.Send(m)
	r.run()
}

func (r *t1rig) clearObservations() {
	for _, c := range []*t1cache{r.l2a, r.l2b, r.tcc, r.dma} {
		c.probed = nil
		c.grant = msg.GrantNone
	}
}

func (r *t1rig) observe() (probes string, grant string) {
	var parts []string
	for _, c := range []*t1cache{r.l2a, r.l2b, r.tcc} {
		for _, kind := range c.probed {
			parts = append(parts, kind+"→"+c.name)
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		probes = "none"
	} else {
		probes = strings.Join(parts, ", ")
	}
	grant = "-"
	for _, c := range []*t1cache{r.l2a, r.l2b, r.tcc, r.dma} {
		if c.grant != msg.GrantNone {
			grant = c.grant.String()
		}
	}
	return probes, grant
}

func (r *t1rig) state() string {
	st, owner, sharers := r.dir.EntryState(r.line)
	if st == "I" {
		return "I"
	}
	names := []string{"L2a", "L2b", "TCC"}
	var hold []string
	if st == "O" && owner >= 0 && owner < len(names) {
		hold = append(hold, names[owner]+"*")
	}
	for i, n := range names {
		if sharers&(1<<uint(i)) != 0 {
			hold = append(hold, n)
		}
	}
	return st + "{" + strings.Join(hold, ",") + "}"
}

// Start-state builders.
func (r *t1rig) mkI() {}

func (r *t1rig) mkS() { // S{L2a} via RdBlkS
	r.send(r.l2a, msg.RdBlkS, false)
	*r.l2a.hasLine.Put(r.line) = false
}

func (r *t1rig) mkODirty() { // O{L2a*} modified
	r.send(r.l2a, msg.RdBlkM, false)
	*r.l2a.hasLine.Put(r.line) = true
}

func (r *t1rig) mkOClean() { // O{L2a*} exclusive-clean
	r.send(r.l2a, msg.RdBlk, false)
	*r.l2a.hasLine.Put(r.line) = false
}

// TableI regenerates the transition table from the implementation.
func TableI() []TransitionRow {
	type scenario struct {
		start string
		setup func(*t1rig)
		req   string
		fire  func(*t1rig)
	}
	scenarios := []scenario{
		{"I", (*t1rig).mkI, "RdBlk (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlk, false) }},
		{"I", (*t1rig).mkI, "RdBlkS (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlkS, false) }},
		{"I", (*t1rig).mkI, "RdBlkM (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlkM, false) }},
		{"I", (*t1rig).mkI, "RdBlk (TCC)", func(r *t1rig) { r.send(r.tcc, msg.RdBlk, false) }},
		{"I", (*t1rig).mkI, "WT (TCC)", func(r *t1rig) { r.send(r.tcc, msg.WT, true) }},
		{"I", (*t1rig).mkI, "Atomic (TCC)", func(r *t1rig) { r.send(r.tcc, msg.Atomic, false) }},
		{"I", (*t1rig).mkI, "DMARd", func(r *t1rig) { r.send(r.dma, msg.DMARd, false) }},
		{"I", (*t1rig).mkI, "DMAWr", func(r *t1rig) { r.send(r.dma, msg.DMAWr, false) }},

		{"S{L2a}", (*t1rig).mkS, "RdBlk (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlk, false) }},
		{"S{L2a}", (*t1rig).mkS, "RdBlkS (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlkS, false) }},
		{"S{L2a}", (*t1rig).mkS, "RdBlkM (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlkM, false) }},
		{"S{L2a}", (*t1rig).mkS, "VicClean (L2a)", func(r *t1rig) { r.send(r.l2a, msg.VicClean, false) }},
		{"S{L2a}", (*t1rig).mkS, "WT (TCC)", func(r *t1rig) { r.send(r.tcc, msg.WT, true) }},
		{"S{L2a}", (*t1rig).mkS, "Atomic (TCC)", func(r *t1rig) { r.send(r.tcc, msg.Atomic, false) }},
		{"S{L2a}", (*t1rig).mkS, "DMARd", func(r *t1rig) { r.send(r.dma, msg.DMARd, false) }},
		{"S{L2a}", (*t1rig).mkS, "DMAWr", func(r *t1rig) { r.send(r.dma, msg.DMAWr, false) }},

		{"O{L2a*} (M)", (*t1rig).mkODirty, "RdBlk (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlk, false) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "RdBlkM (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlkM, false) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "RdBlkM (L2a, upgrade)", func(r *t1rig) { r.send(r.l2a, msg.RdBlkM, false) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "VicDirty (L2a)", func(r *t1rig) { r.send(r.l2a, msg.VicDirty, false) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "WT (TCC)", func(r *t1rig) { r.send(r.tcc, msg.WT, true) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "Atomic (TCC)", func(r *t1rig) { r.send(r.tcc, msg.Atomic, false) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "DMARd", func(r *t1rig) { r.send(r.dma, msg.DMARd, false) }},
		{"O{L2a*} (M)", (*t1rig).mkODirty, "DMAWr", func(r *t1rig) { r.send(r.dma, msg.DMAWr, false) }},

		{"O{L2a*} (E)", (*t1rig).mkOClean, "RdBlk (L2b)", func(r *t1rig) { r.send(r.l2b, msg.RdBlk, false) }},
		{"O{L2a*} (E)", (*t1rig).mkOClean, "RdBlkS (L2a, I$ miss)", func(r *t1rig) { r.send(r.l2a, msg.RdBlkS, false) }},
		{"O{L2a*} (E)", (*t1rig).mkOClean, "VicClean (L2a)", func(r *t1rig) { r.send(r.l2a, msg.VicClean, false) }},
	}

	var rows []TransitionRow
	for _, sc := range scenarios {
		r := newT1()
		sc.setup(r)
		r.clearObservations()
		sc.fire(r)
		probes, grant := r.observe()
		rows = append(rows, TransitionRow{
			Start:   sc.start,
			Request: sc.req,
			Probes:  probes,
			Grant:   grant,
			Next:    r.state(),
		})
	}
	return rows
}

// WriteTableI renders the regenerated Table I.
func WriteTableI(w interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(w, "\nTable I — directory transitions as implemented (sharer tracking)\n")
	fmt.Fprintf(w, "%s\n", strings.Repeat("=", 66))
	fmt.Fprintf(w, "%-14s %-24s %-24s %-6s %s\n", "state", "request", "probes", "grant", "next state")
	for _, row := range TableI() {
		fmt.Fprintf(w, "%-14s %-24s %-24s %-6s %s\n",
			row.Start, row.Request, row.Probes, row.Grant, row.Next)
	}
	fmt.Fprintf(w, "(owner marked '*'; DMA requests never enter the table's tracked sets)\n")
}
