//go:build go1.23

// Package prog defines the workload programming model: CPU threads and
// GPU wavefronts written as ordinary Go functions that issue memory
// operations through a context object.
//
// CPUThread and Wave are slots: each is one iter.Pull coroutine that
// runs the program bodies Start loads into it, one after another, as a
// core runs successive threads and a CU successive wavefronts. The
// executor (a cpu.Core or a gpu wave slot) keeps its slot across bodies
// and drives the coroutine on the simulation engine's own goroutine.
// NextOp hands the executor the body's next operation, and reports
// false once the body has returned and every operation it issued has
// been handed out, which leaves the slot idle; Complete stores that
// operation's result. A body starts at its slot's first NextOp after
// Start, not at Start, so even the code before its first operation
// runs on the executor's schedule. Only one program runs at a time,
// and execution is fully deterministic.
//
// A body runs ahead of its executor: it suspends only on an operation
// whose result it reads from the simulation. Stores, computes and
// loads of read-only words (below) return at once and wait in a
// fixed-size queue, and the body runs on to its next operation; NextOp
// hands queued operations out in program order and resumes the body
// only once the queue is empty. A body suspends on a load of a word
// that is not read-only, on every atomic, on Launch, Wait, DMA and
// Barrier, and after maxAhead operations in a row that it did not wait
// for, so even a body that never reads a result yields to its
// executor. The executor sees the same operations with the same
// operands in the same order either way; run-ahead changes only when a
// body's own Go code runs, which is earlier, never later. So the Go
// code after a Wait still runs after every wave body of the kernel has
// returned.
//
// A panic in a body surfaces from NextOp with its value, after the
// operations the body queued before it, and ends the slot. Abort stops
// a slot's coroutine, unwinding a body suspended in an op. An idle slot
// parks between bodies, so only Abort ends it: an executor aborts
// every slot it made once it is done with them, or the coroutine stays
// parked, with its goroutine, for the life of the process.
//
// An operation's operand slices (addresses, store values) stay the
// program's: a queued operation's operands are copied into storage the
// slot owns (a wave whose storage is full waits for its queue to
// drain), and the executor reads a suspending operation's only while
// the program is suspended on it. Wave.VecLoad appends its
// values to a buffer the program passes in. A program may therefore
// reuse one address buffer and one value buffer for all its vector
// operations, and a kernel written that way allocates nothing per
// operation.
//
// Loads observe the functional memory at their completion time; atomics
// read-modify-write at their serialization point (L2 ownership for CPU
// atomics, TCC or directory for GPU atomics), matching the visibility
// model of the simulated protocol. A word in a range the workload
// declares read-only (memdata.Memory.SetReadOnly) reads the same value
// at issue: no write can reach it during the run, so a load of one
// takes its value from the functional memory when the body issues it,
// and the executor still runs the load for its timing.
//
// The package needs Go 1.23 (package iter), while the module's go
// directive stays at 1.22; its files carry a go1.23 build constraint.
package prog

import (
	"fmt"
	"iter"

	"hscsim/internal/memdata"
)

// maxAhead bounds the operations a body issues without waiting for
// one. Over a 60-cell paper sweep, the coroutine resumed 581 k times
// at 16, 542 k at 32 and 524 k at 64, against 2.31 M without
// run-ahead.
const maxAhead = 32

// errAborted unwinds a body whose executor stopped it: suspend panics
// with it when yield reports the stop, and the slot recovers it.
var errAborted = fmt.Errorf("prog: workload aborted")

// slot is the pull coroutine shared by CPUThread and Wave, running
// bodies against the context self, and the queue of operations its
// body issued that the executor has not taken yet. The body appends to
// the queue while it runs and the executor takes from it while the
// body is suspended, and the body is resumed only once the executor
// has taken every queued operation. So the queue fills from empty,
// drains to empty, and needs no wrap-around.
type slot[O, P any] struct {
	head, n int // q[head:n] are queued
	yield   func(struct{}) bool
	next    func() (struct{}, bool)
	stop    func()
	self    P
	fn      func(P) // the body start loaded, until it begins
	idle    bool    // the body returned or none was loaded, and the slot is not stopped
	// panicked is the value a body panicked with, raised by ended
	// once the operations it queued first are handed out.
	panicked any
	q        [maxAhead]O
}

// init makes self the context of the slot's bodies. The coroutine
// starts at the first NextOp.
func (s *slot[O, P]) init(self P) {
	s.self, s.idle = self, true
	s.next, s.stop = iter.Pull(s.run)
}

// run is the slot's coroutine: each loaded body in turn, with an idle
// yield after each. A stop there ends the coroutine; a stop while a
// body is suspended in an op unwinds that body (suspend), and a panic
// ends it too.
func (s *slot[O, P]) run(yield func(struct{}) bool) {
	s.yield = yield
	for {
		if fn := s.fn; fn != nil {
			s.fn = nil
			if !s.call(fn) {
				return
			}
		}
		s.idle = true
		if !yield(struct{}{}) {
			return
		}
	}
}

// call runs body fn and reports whether it returned. It recovers a
// body unwound by an abort, and keeps any other panic for ended: a
// recover on the executor's side would cost every NextOp that resumes
// the body a defer.
func (s *slot[O, P]) call(fn func(P)) (returned bool) {
	defer func() {
		if !returned {
			if r := recover(); r != errAborted {
				s.panicked = r
			}
		}
	}()
	fn(s.self)
	return true
}

// start loads fn; it begins at the next NextOp.
func (s *slot[O, P]) start(fn func(P)) { s.fn, s.idle = fn, false }

// ready reports whether the slot can take a body: idle, with every
// operation of the last one handed out.
func (s *slot[O, P]) ready() bool { return s.idle && s.head == s.n }

// add queues a new operation and returns it, for the body to fill in
// where it lies, which saves a copy of each.
func (s *slot[O, P]) add() *O {
	s.n++
	return &s.q[s.n-1]
}

// runOn lets the body run on past the operation it queued last, whose
// result it does not read, unless the queue is full.
func (s *slot[O, P]) runOn() {
	if s.n == maxAhead {
		s.suspend()
	}
}

// suspend hands control to the executor until it has taken every
// queued operation and resumes the body. If the executor stopped the
// slot instead, suspend unwinds the body.
func (s *slot[O, P]) suspend() {
	if !s.yield(struct{}{}) {
		panic(errAborted)
	}
}

// ended is what NextOp returns when a resumed body queued nothing: it
// has returned, was stopped or panicked. It raises the panic, now that
// the operations the body queued before it have been handed out, and
// reports false.
func (s *slot[O, P]) ended() bool {
	if r := s.panicked; r != nil {
		s.panicked = nil
		panic(r)
	}
	return false
}

// abort stops the coroutine and drops the queue; the slot can run no
// further body.
func (s *slot[O, P]) abort() {
	s.stop()
	s.fn, s.idle, s.panicked = nil, false, nil
	s.head, s.n = 0, 0
}

// OpKind identifies a CPU thread operation.
type OpKind uint8

// CPU thread operation kinds.
const (
	OpLoad OpKind = iota
	OpStore
	OpAtomic
	OpCompute
	OpLaunch // enqueue a GPU kernel
	OpWait   // wait for a kernel handle to complete
	OpDMA    // host-initiated DMA stream
)

// Op is one CPU-thread operation, delivered to the executing core.
type Op struct {
	Kind    OpKind
	Addr    memdata.Addr
	Value   uint64
	AOp     memdata.AtomicOp
	Compare uint64
	Cycles  uint64
	Kernel  *Kernel
	Handle  *KernelHandle
	// DMA stream parameters.
	DMABytes int
	DMAWrite bool
}

// CPUThread is the context a workload CPU-thread function runs
// against. It is a slot: one core's coroutine, which runs the thread
// bodies Start loads one after another. The core keeps it across
// threads and runs.
type CPUThread struct {
	id  int
	co  slot[Op, *CPUThread]
	fm  *memdata.Memory
	res uint64
}

// NewCPUThread returns an idle slot over the functional memory fm,
// whose read-only words its loads read at issue; Start loads its first
// body. Its coroutine starts at the first NextOp and parks between
// bodies, so an executor must Abort every slot it made once it is done
// with it.
func NewCPUThread(fm *memdata.Memory) *CPUThread {
	t := &CPUThread{fm: fm}
	t.co.init(t)
	return t
}

// Start loads the next thread body into an idle slot (new, or one
// whose NextOp has reported the end of its last body): fn runs as
// thread id from the slot's next NextOp. fn must communicate with the
// simulation only through the context's methods.
func (t *CPUThread) Start(id int, fn func(*CPUThread)) {
	t.id, t.res = id, 0
	t.co.start(fn)
}

// ID returns the thread's index.
func (t *CPUThread) ID() int { return t.id }

// Idle reports whether the slot is ready for Start: no body is loaded
// or running, every operation of the last one has been handed out, and
// it has not been aborted or ended by a panic.
func (t *CPUThread) Idle() bool { return t.co.ready() }

// wait suspends the body on the operation it queued last until the
// executor completes it, and returns the result.
func (t *CPUThread) wait() uint64 {
	t.co.suspend()
	return t.res
}

// Load reads the 64-bit word at a. A read-only word's value is read at
// issue, and the body runs on.
func (t *CPUThread) Load(a memdata.Addr) uint64 {
	*t.co.add() = Op{Kind: OpLoad, Addr: a}
	if t.fm.IsReadOnly(a) {
		v := t.fm.Read(a)
		t.co.runOn()
		return v
	}
	return t.wait()
}

// Store writes v to the word at a.
func (t *CPUThread) Store(a memdata.Addr, v uint64) {
	*t.co.add() = Op{Kind: OpStore, Addr: a, Value: v}
	t.co.runOn()
}

// Atomic performs a CPU atomic read-modify-write, returning the old value.
func (t *CPUThread) Atomic(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	*t.co.add() = Op{Kind: OpAtomic, Addr: a, AOp: op, Value: operand, Compare: compare}
	return t.wait()
}

// AtomicAdd adds delta to the word at a, returning the old value.
func (t *CPUThread) AtomicAdd(a memdata.Addr, delta uint64) uint64 {
	return t.Atomic(memdata.AtomicAdd, a, delta, 0)
}

// AtomicCAS compares-and-swaps the word at a, returning the old value.
func (t *CPUThread) AtomicCAS(a memdata.Addr, expect, desired uint64) uint64 {
	return t.Atomic(memdata.AtomicCAS, a, desired, expect)
}

// AtomicExch swaps v into the word at a, returning the old value.
func (t *CPUThread) AtomicExch(a memdata.Addr, v uint64) uint64 {
	return t.Atomic(memdata.AtomicExch, a, v, 0)
}

// Compute advances the thread by the given number of CPU cycles.
func (t *CPUThread) Compute(cycles uint64) {
	*t.co.add() = Op{Kind: OpCompute, Cycles: cycles}
	t.co.runOn()
}

// SpinUntil polls the word at a until pred holds, backing off a few
// cycles between polls (the shape of CHAI's flag-based synchronization).
func (t *CPUThread) SpinUntil(a memdata.Addr, pred func(uint64) bool) uint64 {
	for {
		v := t.Load(a)
		if pred(v) {
			return v
		}
		t.Compute(64)
	}
}

// Launch enqueues a GPU kernel and returns a completion handle.
func (t *CPUThread) Launch(k *Kernel) *KernelHandle {
	h := &KernelHandle{}
	*t.co.add() = Op{Kind: OpLaunch, Kernel: k, Handle: h}
	t.wait()
	return h
}

// Wait blocks the thread until the kernel behind h completes.
func (t *CPUThread) Wait(h *KernelHandle) {
	*t.co.add() = Op{Kind: OpWait, Handle: h}
	t.wait()
}

// DMAIn streams length bytes at base from a device into memory (DMAWr
// requests at the directory), blocking until the transfer completes.
func (t *CPUThread) DMAIn(base memdata.Addr, length int) {
	*t.co.add() = Op{Kind: OpDMA, Addr: base, DMABytes: length, DMAWrite: true}
	t.wait()
}

// DMAOut streams length bytes at base from memory to a device (DMARd
// requests at the directory), blocking until the transfer completes.
func (t *CPUThread) DMAOut(base memdata.Addr, length int) {
	*t.co.add() = Op{Kind: OpDMA, Addr: base, DMABytes: length, DMAWrite: false}
	t.wait()
}

// NextOp hands out the thread's next operation, resuming the body when
// none is queued, or returns ok == false once the body Start loaded has
// returned and its every operation has been handed out; the slot is
// then idle. A panic in the body propagates out of NextOp and ends the
// slot.
func (t *CPUThread) NextOp() (Op, bool) {
	// The queue is refilled here, not in a generic slot method:
	// through one, the handoff took ~10 % longer (BenchmarkHandoff).
	co := &t.co
	if co.head == co.n {
		co.head, co.n = 0, 0
		co.next()
		if co.n == 0 {
			return Op{}, co.ended()
		}
	}
	co.head++
	return co.q[co.head-1], true
}

// Complete records an operation's result; the body reads it when the
// next NextOp resumes it. A queued operation's result is not read.
func (t *CPUThread) Complete(v uint64) { t.res = v }

// Abort stops the slot: a body suspended in an op unwinds, a body
// loaded but not begun never runs, an idle slot's coroutine returns,
// queued operations are dropped, and later NextOps report false.
// Idempotent.
func (t *CPUThread) Abort() { t.co.abort() }
