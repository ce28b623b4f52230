// Package prog defines the workload programming model: CPU threads and
// GPU wavefronts written as ordinary Go functions that issue memory
// operations through a context object.
//
// Each thread/wavefront runs on its own goroutine, but execution is
// fully deterministic: the single-threaded simulation engine hands
// control to exactly one workload goroutine at a time through a
// synchronous channel rendezvous, and takes it back before scheduling
// anything else ("share memory by communicating"). The goroutine starts
// on the executor's first NextOp, not at construction, so even the code
// before a program's first operation runs while the executor waits.
// Loads observe the functional memory at their completion time; atomics
// read-modify-write at their serialization point (L2 ownership for CPU
// atomics, TCC or directory for GPU atomics), matching the visibility
// model of the simulated protocol.
package prog

import (
	"fmt"

	"hscsim/internal/memdata"
)

// errAborted is panicked through workload goroutines when a simulation
// is torn down early.
var errAborted = fmt.Errorf("prog: workload aborted")

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
	id   int
	fn   func(*CPUThread) // nil once started
	ops  chan Op
	res  chan uint64
	kill chan struct{}
}

// NewCPUThread returns the context the executor pulls operations from;
// fn starts on its own goroutine at the first NextOp. fn must
// communicate with the simulation only through the context's methods.
func NewCPUThread(id int, fn func(*CPUThread)) *CPUThread {
	return &CPUThread{
		id:   id,
		fn:   fn,
		ops:  make(chan Op),
		res:  make(chan uint64),
		kill: make(chan struct{}),
	}
}

func (t *CPUThread) start() {
	fn := t.fn
	t.fn = nil
	//lockcheck:spawn workload coroutine — the kill channel aborts it when the executor stops
	go func() {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				panic(r)
			}
		}()
		defer close(t.ops)
		fn(t)
	}()
}

// ID returns the thread's index.
func (t *CPUThread) ID() int { return t.id }

func (t *CPUThread) do(op Op) uint64 {
	select {
	case t.ops <- op:
	case <-t.kill:
		panic(errAborted)
	}
	select {
	case v := <-t.res:
		return v
	case <-t.kill:
		panic(errAborted)
	}
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

// NextOp is the executor side of the rendezvous: it blocks until the
// thread issues its next operation or returns (ok == false). The first
// call starts the thread.
func (t *CPUThread) NextOp() (Op, bool) {
	if t.fn != nil {
		t.start()
	}
	op, ok := <-t.ops
	return op, ok
}

// Complete delivers an operation's result and hands control back to the
// thread until it issues its next operation.
func (t *CPUThread) Complete(v uint64) { t.res <- v }

// Abort tears the thread down (end-of-simulation cleanup).
func (t *CPUThread) Abort() {
	select {
	case <-t.kill:
	default:
		close(t.kill)
	}
}
