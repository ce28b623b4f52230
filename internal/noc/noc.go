// Package noc models the on-die interconnect between the CorePair L2s,
// the TCC, the DMA engine and the system-level directory.
//
// The paper's evaluation reports network activity as the number of
// probes (and their acknowledgments) crossing this fabric, so the model
// focuses on per-message latency and exact message accounting rather
// than detailed router microarchitecture.
package noc

import (
	"fmt"

	"hscsim/internal/msg"
	"hscsim/internal/sim"
)

// Handler receives delivered messages. Each receiver gets its own copy
// of the message and may keep it for as long as it likes.
type Handler interface {
	Receive(m msg.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m msg.Message)

// Receive calls f(m).
func (f HandlerFunc) Receive(m msg.Message) { f(m) }

// Fabric is the interface cache controllers use to reach the
// interconnect. The production implementation is *Interconnect; the
// model checker in internal/verify substitutes a fabric that buffers
// in-flight messages so delivery order can be explored exhaustively.
//
// Messages travel by value: a sender builds a literal and sends it, and
// nothing it does afterwards can reach the copy in flight.
type Fabric interface {
	Register(id msg.NodeID, h Handler)
	// Send injects m now.
	Send(m msg.Message)
	// SendAfter injects m delay ticks from now, as if Send were called
	// then: traffic counters, tracing and egress-port occupancy all
	// apply at departure. It models a controller's pipeline latency
	// ahead of the network.
	SendAfter(delay sim.Tick, m msg.Message)
}

// DeliveryHook observes every message just after the destination
// handler has processed it. The runtime coherence oracle attaches here
// to cross-check cache states against a golden functional memory.
type DeliveryHook func(t sim.Tick, m msg.Message)

// Config sets interconnect timing.
type Config struct {
	// Latency is the one-way message latency in ticks (CPU cycles).
	Latency sim.Tick
	// WidthBytes, when non-zero, serializes each node's egress port:
	// a message occupies its sender's port for ceil(bytes/WidthBytes)
	// ticks, so bursts (probe broadcasts, vector fills) contend.
	WidthBytes int
}

// DefaultConfig matches the simulated APU: a small crossbar with a few
// cycles of traversal latency and 32-byte links.
func DefaultConfig() Config { return Config{Latency: 4, WidthBytes: 32} }

// Tracer observes every message at send time.
type Tracer func(t sim.Tick, m msg.Message)

// Mutator rewrites a message at delivery time, or drops it by returning
// false. It exists purely for fault injection: the conformance harness
// (internal/conform) seeds protocol weakenings to prove the oracle and
// differential checks catch them. It must be a pure function of the
// message.
type Mutator func(m msg.Message) (msg.Message, bool)

// Interconnect is a crossbar connecting registered nodes. Node IDs are
// small and dense (see system.nodeLayout), so handlers and port clocks
// live in ID-indexed slices rather than maps.
//
// Messages in flight wait in a slot table: Send and SendAfter copy the
// message into a free slot and post an engine event carrying the slot
// index, and the event copies the message out (freeing the slot) before
// acting on it. The table grows to the peak number of messages in
// flight and is reused from then on, so steady-state traffic allocates
// nothing.
type Interconnect struct {
	engine     *sim.Engine
	cfg        Config
	handlers   []Handler
	portFree   []sim.Tick
	slots      []msg.Message
	freeSlots  []uint32
	tracer     Tracer
	mutate     Mutator
	onDelivery DeliveryHook

	Stats Stats
}

// Stats are the interconnect's traffic counters.
type Stats struct {
	Messages        uint64 `stat:"messages"`
	Bytes           uint64 `stat:"bytes"`
	Probes          uint64 `stat:"probes"`
	ProbeAcks       uint64 `stat:"probe_acks"`
	DataMessages    uint64 `stat:"data_messages"`
	PortStallCycles uint64 `stat:"port_stall_cycles"`
}

// Interconnect event kinds (sim.Handler dispatch); arg is a slot index.
const (
	nocKindDeliver uint8 = iota // the message reaches its destination
	nocKindDepart               // a SendAfter delay elapsed: Send now
)

// New creates an interconnect.
func New(engine *sim.Engine, cfg Config) *Interconnect {
	ic := &Interconnect{engine: engine, cfg: cfg}
	ic.Reset()
	return ic
}

// Reset returns the interconnect to its just-wired state: idle egress
// ports, no message in flight and zero counters. It keeps the wiring
// (registered handlers, tracer, mutator and delivery hook) and the
// slot table's storage; which slot a message waits in never enters the
// event order.
func (ic *Interconnect) Reset() {
	clear(ic.portFree)
	ic.slots = ic.slots[:0]
	ic.freeSlots = ic.freeSlots[:0]
	ic.Stats = Stats{}
}

// Register attaches a handler to a node ID. Registering the same ID
// twice is a wiring bug and panics.
func (ic *Interconnect) Register(id msg.NodeID, h Handler) {
	for int(id) >= len(ic.handlers) {
		ic.handlers = append(ic.handlers, nil)
		ic.portFree = append(ic.portFree, 0)
	}
	if ic.handlers[id] != nil {
		panic(fmt.Sprintf("noc: duplicate node %d", id))
	}
	ic.handlers[id] = h
}

// SetTracer installs (or, with nil, removes) a message tracer.
func (ic *Interconnect) SetTracer(t Tracer) { ic.tracer = t }

// SetMutator installs (or, with nil, removes) a delivery-time fault
// injector. Dropped messages still pay their port occupancy — the fault
// model is "the receiver never saw it", not "it was never sent".
func (ic *Interconnect) SetMutator(mu Mutator) { ic.mutate = mu }

// SetDeliveryHook installs (or, with nil, removes) a post-delivery
// observer. The hook runs after the destination handler returns, so it
// sees the receiver's state with the message already applied.
func (ic *Interconnect) SetDeliveryHook(h DeliveryHook) { ic.onDelivery = h }

// park copies m into a free slot and returns the slot index.
func (ic *Interconnect) park(m *msg.Message) uint64 {
	if n := len(ic.freeSlots); n > 0 {
		i := ic.freeSlots[n-1]
		ic.freeSlots = ic.freeSlots[:n-1]
		ic.slots[i] = *m
		return uint64(i)
	}
	ic.slots = append(ic.slots, *m)
	return uint64(len(ic.slots) - 1)
}

// SendAfter injects m delay ticks from now. The departure is an engine
// event posted now, so it takes its place in the event order at the
// call, exactly like a controller's own delayed-send event would.
func (ic *Interconnect) SendAfter(delay sim.Tick, m msg.Message) {
	ic.engine.Post(delay, ic, nocKindDepart, ic.park(&m), nil)
}

// Send delivers m to m.Dst after the configured latency, counting
// traffic by class.
func (ic *Interconnect) Send(m msg.Message) {
	if ic.tracer != nil {
		ic.tracer(ic.engine.Now(), m)
	}
	if int(m.Dst) >= len(ic.handlers) || ic.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("noc: send to unregistered node %d (%s)", m.Dst, m))
	}
	ic.Stats.Messages++
	bytes := m.Bytes()
	ic.Stats.Bytes += uint64(bytes)
	switch m.Type {
	case msg.PrbInv, msg.PrbDowngrade:
		ic.Stats.Probes++
	case msg.PrbAck:
		ic.Stats.ProbeAcks++
	default:
		// Only probe traffic is classified separately.
	}
	if bytes == msg.DataBytes {
		ic.Stats.DataMessages++
	}
	depart := ic.engine.Now()
	if ic.cfg.WidthBytes > 0 {
		// Serialize the sender's egress port. Senders need not be
		// registered receivers (the map-based fabric tolerated that),
		// so grow the port table on demand.
		for int(m.Src) >= len(ic.portFree) {
			ic.portFree = append(ic.portFree, 0)
		}
		if free := ic.portFree[m.Src]; free > depart {
			ic.Stats.PortStallCycles += uint64(free - depart)
			depart = free
		}
		occupancy := sim.Tick((bytes + ic.cfg.WidthBytes - 1) / ic.cfg.WidthBytes)
		ic.portFree[m.Src] = depart + occupancy
	}
	// The handler is resolved at delivery time from m.Dst (only a
	// Mutator can rewrite Dst in flight).
	ic.engine.PostAt(depart+ic.cfg.Latency, ic, nocKindDeliver, ic.park(&m), nil)
}

// OnEvent implements sim.Handler for the events Send and SendAfter
// post. The message leaves its slot before anything else runs, so a
// handler that sends reuses the slot it was delivered from.
func (ic *Interconnect) OnEvent(kind uint8, arg uint64, _ any) {
	m := ic.slots[arg]
	ic.freeSlots = append(ic.freeSlots, uint32(arg))
	if kind == nocKindDepart {
		ic.Send(m)
		return
	}
	if ic.mutate != nil {
		var keep bool
		if m, keep = ic.mutate(m); !keep {
			return
		}
	}
	ic.handlers[m.Dst].Receive(m)
	if ic.onDelivery != nil {
		ic.onDelivery(ic.engine.Now(), m)
	}
}
