// Package sim provides a deterministic discrete-event simulation engine.
//
// All components of the simulated APU schedule work on a single Engine.
// Events are ordered by tick; events scheduled for the same tick execute
// in the order they were scheduled (a stable sequence number breaks ties),
// which makes every simulation run bit-for-bit reproducible.
//
// The scheduler is a calendar queue tuned to the tick distribution the
// system actually produces (cache hits at 1–4 ticks, GPU cache levels at
// 13–25, memory at ~160): a ring of per-tick FIFO buckets covers the
// near-future window [cur, cur+len(buckets)), which slides forward with
// the scan cursor, and events beyond the window wait in a small
// (tick, seq)-ordered overflow heap until the window reaches them. A
// bucket is an intrusive list threaded through the events themselves,
// so scheduling into the window is an O(1) link that never allocates;
// popping is O(1) amortized.
//
// Every event has one form: Post or PostAt names a Handler, a kind, a
// scalar arg and an optional obj, and the engine calls
// target.OnEvent(kind, arg, obj) when it fires. Events come from a
// free-list pool, so the steady-state hot path (Post + fire) performs
// zero allocations — see DESIGN.md, "Event loop", for the sizing
// heuristic and the determinism argument. The seed binary-heap
// scheduler survives only as the test oracle in ref_test.go.
package sim

import (
	"errors"
	"fmt"
)

// ErrInterrupted is returned by Run when the engine's Interrupt channel
// closes mid-run (job cancellation or timeout in internal/engine).
// Interruption is cooperative and deterministic with respect to the
// simulation itself: the poll happens between events and never perturbs
// event order, so a run that is not interrupted is bit-for-bit identical
// to one with no Interrupt channel installed.
var ErrInterrupted = errors.New("sim: interrupted")

// interruptPollInterval is how many executed events pass between polls
// of the Interrupt channel — frequent enough to cancel within
// microseconds, rare enough to stay off the hot path.
const interruptPollInterval = 4096

// Tick is the simulation time unit. One tick is one CPU clock cycle
// (3.5 GHz in the paper's configuration); slower clock domains schedule
// events at multiples of the tick.
type Tick uint64

// minBuckets is the initial calendar window width in ticks. 256 covers
// every steady-state latency in the system (L1 1, L2/NoC 4, TCP 13,
// TCC 25, memory 160) so in practice only cold-path events (GPU kernel
// launch at ~500 ticks, long compute ops) touch the overflow heap.
const minBuckets = 256

// maxBuckets caps adaptive window growth. Growth doubles the window
// whenever the overflow heap is as populated as the window is wide
// (the distribution outgrew it); 4096 bounds the empty-bucket scan a
// single pop can perform on a sparse queue.
const maxBuckets = 4096

// Handler is the target of every event Post and PostAt schedule. kind
// demultiplexes within a component, arg carries a packed scalar payload
// (an address, a resume value), and obj carries an optional reference
// payload. Pointer-shaped obj values (pointers, func values) do not
// allocate when stored; non-pointer scalars would box, which is why arg
// is a separate field.
type Handler interface {
	OnEvent(kind uint8, arg uint64, obj any)
}

// event is a unit of scheduled work, owned by the engine's pool: the
// (when, seq) ordering header, the dispatch payload, and the link that
// chains it into its bucket while queued or into the free list while
// pooled.
type event struct {
	when   Tick
	seq    uint64
	arg    uint64
	target Handler
	obj    any
	next   *event
	kind   uint8
}

// bucket is one calendar slot: a FIFO list of the events for a single
// tick, linked through event.next. Both ends are nil when it is empty.
type bucket struct {
	head, tail *event
}

// push appends ev at the tail.
func (b *bucket) push(ev *event) {
	if b.tail == nil {
		b.head = ev
	} else {
		b.tail.next = ev
	}
	b.tail = ev
}

// Engine is the discrete-event scheduler. The zero value is not usable;
// create one with NewEngine.
type Engine struct {
	now Tick
	seq uint64

	// Calendar state. buckets[t&mask] holds exactly the events for tick
	// t when cur ≤ t < cur+len(buckets); cur is the scan cursor (no
	// queued event is earlier than cur), and every queued event at or
	// beyond cur+len(buckets) waits in overflow.
	buckets  []bucket
	mask     Tick
	cur      Tick
	overflow overflowHeap
	size     int // queued events

	free *event // pooled events, linked through next

	// MaxTicks aborts the run when exceeded (0 means no limit). It is a
	// safety net against livelocked protocols or non-terminating spins.
	MaxTicks Tick

	// Interrupt, when non-nil, is polled between events; once it is
	// closed (or sends), Run and Step return ErrInterrupted. Used by the
	// job engine for cancellation and per-job timeouts.
	Interrupt <-chan struct{}

	executed uint64
}

// NewEngine returns an empty engine at tick 0.
func NewEngine() *Engine {
	return &Engine{
		buckets: make([]bucket, minBuckets),
		mask:    minBuckets - 1,
	}
}

// Now returns the current simulation tick.
func (e *Engine) Now() Tick { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// alloc takes an event from the free list, or allocates one if the pool
// is dry (only while the in-flight population is still growing). The
// event comes back unlinked.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// release returns an unlinked event to the pool, dropping its
// references so a pooled event pins neither its target nor its payload.
func (e *Engine) release(ev *event) {
	ev.target = nil
	ev.obj = nil
	ev.next = e.free
	e.free = ev
}

// insert places a queued event into its calendar bucket or, beyond the
// window, into the overflow heap. Callers guarantee ev.when ≥ now ≥
// cur, so the in-window test needs no lower bound. The queue owns the
// event from here.
func (e *Engine) insert(ev *event) {
	if ev.when-e.cur < Tick(len(e.buckets)) {
		e.buckets[ev.when&e.mask].push(ev)
	} else {
		e.overflow.push(ev)
	}
	e.size++
}

// Post schedules an event after delay ticks (0 means "later this tick",
// after events already queued for the current tick): when it fires the
// engine calls target.OnEvent(kind, arg, obj). No closure is built, and
// the event comes from the pool.
func (e *Engine) Post(delay Tick, target Handler, kind uint8, arg uint64, obj any) {
	e.PostAt(e.now+delay, target, kind, arg, obj)
}

// PostAt is Post at an absolute tick, which must not be in the past.
func (e *Engine) PostAt(t Tick, target Handler, kind uint8, arg uint64, obj any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	ev := e.alloc()
	ev.when = t
	ev.seq = e.seq
	e.seq++
	ev.target = target
	ev.kind = kind
	ev.arg = arg
	ev.obj = obj
	e.insert(ev)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.size }

// promote moves the overflow events the window now covers, those
// before cur+len(buckets), into their buckets.
//
// An event goes to overflow only while its tick is at least
// len(buckets) ahead of cur, so it reaches its bucket here before any
// event posted into the window for the same tick: such a post comes
// later, with a larger seq. Promotion pops the heap in (when, seq)
// order, so each bucket's FIFO order IS (tick, seq) order, which is the
// whole determinism argument.
func (e *Engine) promote() {
	end := e.cur + Tick(len(e.buckets))
	for len(e.overflow) > 0 && e.overflow[0].when < end {
		ev := e.overflow.pop()
		e.buckets[ev.when&e.mask].push(ev)
	}
}

// jump moves the cursor to t and promotes what the window then covers.
// It must only be called when every bucket is empty, which next checks
// before calling it (every queued event is in the overflow heap).
func (e *Engine) jump(t Tick) {
	// Adaptive sizing: if the overflow population reached the window
	// width, the tick distribution outgrew the window — double it (the
	// buckets are all empty, so regrowing is just a reallocation).
	for len(e.overflow) >= len(e.buckets) && len(e.buckets) < maxBuckets {
		e.buckets = make([]bucket, 2*len(e.buckets))
		e.mask = Tick(len(e.buckets) - 1)
	}
	e.cur = t
	e.promote()
}

// next pops the earliest queued event, or returns nil when the queue is
// empty. The caller owns the popped event and must release it.
//
// The scan never runs off the end of the window: between pops cur ==
// now, posts are never in the past, so every bucketed event lies in
// [cur, cur+len(buckets)), and with none bucketed the window jumps
// first. Each step of the cursor slides the window one tick and
// promotes the overflow events for the tick it now covers.
func (e *Engine) next() *event {
	if e.size == 0 {
		return nil
	}
	if e.size == len(e.overflow) {
		// Nothing bucketed: jump the window straight to the earliest
		// overflow event instead of scanning empty ticks.
		e.jump(e.overflow[0].when)
	}
	for {
		b := &e.buckets[e.cur&e.mask]
		if ev := b.head; ev != nil {
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
			}
			ev.next = nil
			e.size--
			return ev
		}
		e.cur++
		if len(e.overflow) > 0 && e.overflow[0].when < e.cur+Tick(len(e.buckets)) {
			e.promote()
		}
	}
}

// step executes exactly one event. It is the single primitive under
// both Run and Step, so MaxTicks enforcement and Interrupt polling are
// identical in the two (the seed engine's Step skipped both — see the
// regression tests in sim_test.go).
func (e *Engine) step() (bool, error) {
	ev := e.next()
	if ev == nil {
		return false, nil
	}
	e.now = ev.when
	if e.MaxTicks != 0 && e.now > e.MaxTicks {
		// The popped event is ours now: without this release it would
		// neither fire nor return to the free list, leaking one pooled
		// event (and pinning its target/obj) per MaxTicks abort. Pinned
		// by TestMaxTicksReleasesPoppedEvent.
		e.release(ev)
		return false, fmt.Errorf("sim: exceeded MaxTicks=%d with %d events pending", e.MaxTicks, e.size+1)
	}
	// Release before dispatch: the event returns to the pool first, so
	// a handler that immediately posts reuses it without growing the
	// pool. Safe because ordering depends only on (when, seq), both
	// assigned at post time — see DESIGN.md.
	target, kind, arg, obj := ev.target, ev.kind, ev.arg, ev.obj
	e.release(ev)
	target.OnEvent(kind, arg, obj)
	e.executed++
	if e.Interrupt != nil && e.executed%interruptPollInterval == 0 {
		select {
		case <-e.Interrupt:
			return true, fmt.Errorf("%w at tick %d with %d events pending", ErrInterrupted, e.now, e.size)
		default:
		}
	}
	return true, nil
}

// Run executes events until the queue drains, MaxTicks is exceeded, or
// Interrupt fires. It returns an error only on tick-limit exhaustion (a
// protocol deadlock or runaway workload) or interruption.
func (e *Engine) Run() error {
	for {
		ok, err := e.step()
		if err != nil || !ok {
			return err
		}
	}
}

// Step executes exactly one event and reports whether it did; false
// means the queue is empty. It is the
// single-step primitive the model checker (internal/verify) uses to
// drain handler cascades under an event budget. Step enforces MaxTicks
// and polls Interrupt exactly as Run does (Run is Step in a loop); an
// interrupt error can accompany an executed event.
func (e *Engine) Step() (bool, error) {
	return e.step()
}

// overflowHeap is a hand-rolled (when, seq) min-heap over far-future
// events. container/heap would box every push through interface{}; this
// stays monomorphic and allocation-free on the hot path.
type overflowHeap []*event

func (h overflowHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(ev *event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *overflowHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.less(l, least) {
			least = l
		}
		if r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}
