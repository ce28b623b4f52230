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
// NextOp resumes the body until it issues its next operation, and
// reports false once the body has returned, which leaves the slot
// idle; Complete stores that operation's result, which the body reads
// when the next NextOp resumes it. Control therefore alternates
// strictly between engine and program, one program at a time, and
// execution is fully deterministic. A body starts at its slot's first
// NextOp after Start, not at Start, so even the code before its first
// operation runs on the executor's schedule; a panic in the body
// surfaces from NextOp with its value and ends the slot. Abort stops a
// slot's coroutine, unwinding a body suspended in an op. An idle slot
// parks between bodies, so only Abort ends it: an executor aborts
// every slot it made once it is done with them, or the coroutine stays
// parked, with its goroutine, for the life of the process.
//
// An operation's operand slices (addresses, store values) are read by
// the executor only while the program is suspended on that operation,
// and Wave.VecLoad appends its values to a buffer the program passes
// in. A program may therefore reuse one address buffer and one value
// buffer for all its vector operations, and a kernel written that way
// allocates nothing per operation.
//
// Loads observe the functional memory at their completion time; atomics
// read-modify-write at their serialization point (L2 ownership for CPU
// atomics, TCC or directory for GPU atomics), matching the visibility
// model of the simulated protocol.
//
// The package needs Go 1.23 (package iter), while the module's go
// directive stays at 1.22; its files carry a go1.23 build constraint.
package prog

import (
	"fmt"
	"iter"

	"hscsim/internal/memdata"
)

// errAborted unwinds a body whose executor stopped it: issue panics
// with it when yield reports the stop, and the slot's coroutine
// recovers it.
var errAborted = fmt.Errorf("prog: workload aborted")

// slot is the pull coroutine shared by CPUThread and Wave, running
// bodies against the context self. It runs the loaded body, yields the
// zero op with idle set when the body returns, and waits there for the
// next one; the body hands each operation to its executor through
// yield.
type slot[O, P any] struct {
	yield func(O) bool
	next  func() (O, bool)
	stop  func()
	self  P
	fn    func(P) // the body start loaded, until it begins
	idle  bool    // ready for start: no body loaded or running, not stopped
}

// init makes self the context of the slot's bodies. The coroutine
// starts at the first next.
func (s *slot[O, P]) init(self P) {
	s.self, s.idle = self, true
	s.next, s.stop = iter.Pull(s.run)
}

// run is the slot's coroutine: each loaded body in turn, with an idle
// yield after each. A stop there ends the coroutine; a stop while a
// body is suspended in an op unwinds that body (issue).
func (s *slot[O, P]) run(yield func(O) bool) {
	s.yield = yield
	defer recoverAborted()
	for {
		if fn := s.fn; fn != nil {
			s.fn = nil
			fn(s.self)
		}
		s.idle = true
		var end O
		if !yield(end) {
			return
		}
	}
}

// start loads fn; it begins at the next next. The op next returns
// once the body has returned is not one: idle is set.
func (s *slot[O, P]) start(fn func(P)) { s.fn, s.idle = fn, false }

// issue suspends the body until the executor resumes it with the op's
// result. If the executor stopped the slot instead, issue unwinds the
// body.
func (s *slot[O, P]) issue(op O) {
	if !s.yield(op) {
		panic(errAborted)
	}
}

// abort stops the coroutine; the slot can run no further body.
func (s *slot[O, P]) abort() {
	s.stop()
	s.fn, s.idle = nil, false
}

// recoverAborted ends an aborted body quietly; any other panic carries
// on to the executor's NextOp.
func recoverAborted() {
	if r := recover(); r != nil && r != errAborted {
		panic(r)
	}
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
	res uint64
}

// NewCPUThread returns an idle slot; Start loads its first body. Its
// coroutine starts at the first NextOp and parks between bodies, so an
// executor must Abort every slot it made once it is done with it.
func NewCPUThread() *CPUThread {
	t := &CPUThread{}
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
// or running, and it has not been aborted or ended by a panic.
func (t *CPUThread) Idle() bool { return t.co.idle }

func (t *CPUThread) do(op Op) uint64 {
	t.co.issue(op)
	return t.res
}

// Load reads the 64-bit word at a.
func (t *CPUThread) Load(a memdata.Addr) uint64 { return t.do(Op{Kind: OpLoad, Addr: a}) }

// Store writes v to the word at a.
func (t *CPUThread) Store(a memdata.Addr, v uint64) { t.do(Op{Kind: OpStore, Addr: a, Value: v}) }

// Atomic performs a CPU atomic read-modify-write, returning the old value.
func (t *CPUThread) Atomic(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	return t.do(Op{Kind: OpAtomic, Addr: a, AOp: op, Value: operand, Compare: compare})
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
func (t *CPUThread) Compute(cycles uint64) { t.do(Op{Kind: OpCompute, Cycles: cycles}) }

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
	t.do(Op{Kind: OpLaunch, Kernel: k, Handle: h})
	return h
}

// Wait blocks the thread until the kernel behind h completes.
func (t *CPUThread) Wait(h *KernelHandle) { t.do(Op{Kind: OpWait, Handle: h}) }

// DMAIn streams length bytes at base from a device into memory (DMAWr
// requests at the directory), blocking until the transfer completes.
func (t *CPUThread) DMAIn(base memdata.Addr, length int) {
	t.do(Op{Kind: OpDMA, Addr: base, DMABytes: length, DMAWrite: true})
}

// DMAOut streams length bytes at base from memory to a device (DMARd
// requests at the directory), blocking until the transfer completes.
func (t *CPUThread) DMAOut(base memdata.Addr, length int) {
	t.do(Op{Kind: OpDMA, Addr: base, DMABytes: length, DMAWrite: false})
}

// NextOp resumes the thread until it issues its next operation, or
// returns ok == false once the body Start loaded has returned; the slot
// is then idle. A panic in the body propagates out of NextOp and ends
// the slot.
func (t *CPUThread) NextOp() (Op, bool) {
	// Not a generic slot method: through one, the handoff took ~15 %
	// longer (BenchmarkHandoff).
	op, ok := t.co.next()
	return op, ok && !t.co.idle
}

// Complete records an operation's result; the thread reads it when the
// next NextOp resumes it.
func (t *CPUThread) Complete(v uint64) { t.res = v }

// Abort stops the slot: a body suspended in an op unwinds, a body
// loaded but not begun never runs, an idle slot's coroutine returns,
// and later NextOps report false. Idempotent.
func (t *CPUThread) Abort() { t.co.abort() }
