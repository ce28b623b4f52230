//go:build go1.23

// Package prog defines the workload programming model: CPU threads and
// GPU wavefronts written as ordinary Go functions that issue memory
// operations through a context object.
//
// Each CPU thread is an iter.Pull coroutine, and so is each GPU wave
// slot (Wave), whose one coroutine runs the wave bodies loaded into it
// one after another. The executor (a cpu.Core or a gpu wave slot)
// drives the coroutine on the simulation engine's own goroutine.
// NextOp resumes the program until it issues its next operation;
// Complete stores that operation's result, which the program reads when
// the next NextOp resumes it. Control therefore alternates strictly
// between engine and program, one program at a time, and execution is
// fully deterministic. A program starts at its executor's first NextOp,
// not at construction, so even the code before its first operation runs
// on the executor's schedule; a panic in the program surfaces from
// NextOp with its value. Abort stops a coroutine, unwinding a program
// suspended in an op. A thread's coroutine also ends when its program
// returns, but a wave slot's parks between bodies, so only Abort ends
// it. A coroutine that is never ended stays parked, with its goroutine,
// for the life of the process.
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

// errAborted unwinds a program whose executor stopped it: issue panics
// with it when yield reports the stop, and the coroutine's sequence
// function recovers it.
var errAborted = fmt.Errorf("prog: workload aborted")

// coroutine is the pull-coroutine half shared by CPUThread and Wave:
// the program runs inside an iter.Pull sequence and hands each
// operation to its executor through yield.
type coroutine[O any] struct {
	yield func(O) bool
	next  func() (O, bool)
	stop  func()
}

// init makes run the coroutine's program; it starts at the first next.
func (c *coroutine[O]) init(run func()) {
	c.next, c.stop = iter.Pull(func(yield func(O) bool) {
		c.yield = yield
		defer recoverAborted()
		run()
	})
}

// issue suspends the program until the executor resumes it with the
// op's result. If the executor stopped the coroutine instead, issue
// unwinds the program.
func (c *coroutine[O]) issue(op O) {
	if !c.yield(op) {
		panic(errAborted)
	}
}

// recoverAborted ends an aborted program quietly; any other panic
// carries on to the executor's NextOp.
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

// CPUThread is the context a workload CPU-thread function runs against.
type CPUThread struct {
	id  int
	co  coroutine[Op]
	res uint64
}

// NewCPUThread returns the context the executor pulls operations from;
// fn starts at the first NextOp. fn must communicate with the
// simulation only through the context's methods.
func NewCPUThread(id int, fn func(*CPUThread)) *CPUThread {
	t := &CPUThread{id: id}
	t.co.init(func() { fn(t) })
	return t
}

// ID returns the thread's index.
func (t *CPUThread) ID() int { return t.id }

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
// returns ok == false once it has returned. The first call starts the
// thread. A panic in the thread's program propagates out of NextOp.
func (t *CPUThread) NextOp() (Op, bool) { return t.co.next() }

// Complete records an operation's result; the thread reads it when the
// next NextOp resumes it.
func (t *CPUThread) Complete(v uint64) { t.res = v }

// Abort stops the thread (end-of-simulation cleanup): a suspended
// program unwinds, a thread that never started never runs, and later
// NextOps report completion. Idempotent.
func (t *CPUThread) Abort() { t.co.stop() }
