package sim

import (
	"container/heap"
	"fmt"
)

// refEngine is the seed binary-heap scheduler, kept as the reference
// oracle the differential suite (diff_test.go) runs the calendar queue
// against: container/heap over (tick, seq)-ordered closures, no pooling,
// no window. It lives in a test file, so no production code can
// schedule a closure.
type refEngine struct {
	clock Tick
	seq   uint64
	queue refHeap
	fired uint64
}

type refEvent struct {
	when Tick
	seq  uint64
	fn   func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// schedule runs fn after delay ticks (0 means "later this tick", after
// events already queued for the current tick).
func (e *refEngine) schedule(delay Tick, fn func()) { e.at(e.clock+delay, fn) }

// at runs fn at absolute tick t, which must not be in the past.
func (e *refEngine) at(t Tick, fn func()) {
	if t < e.clock {
		panic(fmt.Sprintf("refEngine: scheduling at %d before now %d", t, e.clock))
	}
	heap.Push(&e.queue, &refEvent{when: t, seq: e.seq, fn: fn})
	e.seq++
}

// run executes events until the queue drains.
func (e *refEngine) run() {
	for e.step() {
	}
}

// step executes exactly one event and reports whether it did; false
// means the queue is empty.
func (e *refEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.clock = ev.when
	ev.fn()
	e.fired++
	return true
}

func (e *refEngine) now() Tick        { return e.clock }
func (e *refEngine) executed() uint64 { return e.fired }
func (e *refEngine) pending() int     { return len(e.queue) }
