//go:build go1.23

package prog

import (
	"slices"

	"hscsim/internal/memdata"
)

// Kernel describes a GPU grid: Workgroups × WavesPerWG wavefronts, each
// executing Fn. CHAI kernels use the IDs to partition work.
type Kernel struct {
	Name       string
	Workgroups int
	WavesPerWG int
	// Fn is the wavefront program.
	Fn func(w *Wave)
	// CodeAddr is the base address used for SQC instruction fetches.
	CodeAddr memdata.Addr
}

// KernelHandle tracks kernel completion for host-side Wait.
type KernelHandle struct {
	done    bool
	waiters []func() // released by CompleteKernel
}

// Done reports completion.
func (h *KernelHandle) Done() bool { return h.done }

// OnDone registers fn to run at completion (immediately if already done).
func (h *KernelHandle) OnDone(fn func()) {
	if h.done {
		fn()
		return
	}
	h.waiters = append(h.waiters, fn)
}

// CompleteKernel marks the kernel finished and releases waiters. Called
// by the GPU dispatcher.
func (h *KernelHandle) CompleteKernel() {
	h.done = true
	ws := h.waiters
	h.waiters = nil
	for _, fn := range ws {
		fn()
	}
}

// WaveOpKind identifies a wavefront operation.
type WaveOpKind uint8

// Wavefront operation kinds.
const (
	WaveVecLoad WaveOpKind = iota
	WaveVecStore
	WaveAtomicSys
	WaveAtomicDev
	WaveBarrier
	WaveCompute
)

// WaveOp is one wavefront operation delivered to the executing CU.
type WaveOp struct {
	Kind    WaveOpKind
	Addrs   []memdata.Addr // VecLoad / VecStore word addresses
	Values  []uint64       // VecStore values
	Addr    memdata.Addr   // atomic word address
	AOp     memdata.AtomicOp
	Operand uint64
	Compare uint64
	Cycles  uint64
}

// aheadWords is the operand storage of a wave slot's queued
// operations, in addresses and again in store values: 16 of the
// bundled kernels' 16-word vector loads, or 16 vector stores.
const aheadWords = 256

// Wave is the context a wavefront program runs against. It is a slot:
// one resident wave's coroutine, which runs the bodies Start loads one
// after another, as a CU runs successive wavefronts in a fixed set of
// wave slots. The executor keeps the slot, and the callbacks it binds
// to it, across waves and kernels.
type Wave struct {
	WG     int // workgroup index
	Lane   int // wavefront index within the workgroup
	Global int // global wavefront index

	co  slot[WaveOp, *Wave]
	fm  *memdata.Memory
	res []uint64

	// Single-word Load/Store operands, and Load's value: a queued op
	// has its own copies, and the executor reads these only while the
	// wave is suspended on that op.
	addr1 [1]memdata.Addr
	val1  [1]uint64

	// Operand storage of queued operations, filled from the start
	// while the body runs ahead and free again once the executor has
	// taken every queued operation: the body may rewrite its own
	// buffers before the executor reads a queued operation's.
	addrs  [aheadWords]memdata.Addr
	vals   [aheadWords]uint64
	nAddrs int
	nVals  int
}

// NewWave returns an idle slot over the functional memory fm, whose
// read-only words its loads read at issue; Start loads its first body.
// Its coroutine starts at the first NextOp and parks between bodies, so
// an executor must Abort every slot it made once the run ends.
func NewWave(fm *memdata.Memory) *Wave {
	w := &Wave{fm: fm}
	w.co.init(w)
	return w
}

// Start loads the next wave body into an idle slot (new, or one whose
// NextOp has reported the end of its last body): fn runs as wavefront
// global, lane lane of workgroup wg, from the slot's next NextOp.
func (w *Wave) Start(wg, lane, global int, fn func(*Wave)) {
	w.WG, w.Lane, w.Global = wg, lane, global
	w.res = nil
	w.co.start(fn)
}

// wait suspends the body on the operation it queued last until the
// executor completes it, and returns the results.
func (w *Wave) wait() []uint64 {
	w.co.suspend()
	return w.res
}

// stash copies the operands of an operation the body will run on past
// into the slot's operand storage, and returns the copies. When the
// storage cannot take them, the body first waits for the executor to
// take every queued operation. It reports false, copying nothing, for
// operands larger than the storage: the body must wait for such an
// operation.
func (w *Wave) stash(addrs []memdata.Addr, values []uint64) ([]memdata.Addr, []uint64, bool) {
	if len(addrs) > aheadWords || len(values) > aheadWords {
		return nil, nil, false
	}
	if w.nAddrs+len(addrs) > aheadWords || w.nVals+len(values) > aheadWords {
		w.co.suspend()
	}
	a := w.addrs[w.nAddrs : w.nAddrs+copy(w.addrs[w.nAddrs:], addrs)]
	v := w.vals[w.nVals : w.nVals+copy(w.vals[w.nVals:], values)]
	w.nAddrs += len(a)
	w.nVals += len(v)
	return a, v, true
}

// readOnly reports whether every word of addrs is read-only.
func (w *Wave) readOnly(addrs []memdata.Addr) bool {
	for _, a := range addrs {
		if !w.fm.IsReadOnly(a) {
			return false
		}
	}
	return true
}

// VecLoad performs a coalesced vector load of the given word addresses,
// appends their values to dst and returns the extended slice, in the
// style of strconv.AppendInt. dst is the caller's own buffer: a kernel
// that passes the same one, truncated, to every load allocates nothing
// once it has grown, and the values stay valid across later ops until
// the kernel reuses it. When every word is read-only, the values are
// read at issue and the body runs on.
func (w *Wave) VecLoad(dst []uint64, addrs []memdata.Addr) []uint64 {
	if w.readOnly(addrs) {
		if cp, _, ok := w.stash(addrs, nil); ok {
			*w.co.add() = WaveOp{Kind: WaveVecLoad, Addrs: cp}
			dst = slices.Grow(dst, len(addrs))
			for _, a := range addrs {
				dst = append(dst, w.fm.Read(a))
			}
			w.co.runOn()
			return dst
		}
	}
	*w.co.add() = WaveOp{Kind: WaveVecLoad, Addrs: addrs}
	return append(dst, w.wait()...)
}

// Load reads a single word through the vector path.
func (w *Wave) Load(a memdata.Addr) uint64 {
	w.addr1[0] = a
	return w.VecLoad(w.val1[:0], w.addr1[:])[0]
}

// VecStore performs a coalesced vector store of values to addrs
// (len(values) must equal len(addrs)).
func (w *Wave) VecStore(addrs []memdata.Addr, values []uint64) {
	if len(addrs) != len(values) {
		panic("prog: VecStore length mismatch")
	}
	if a, v, ok := w.stash(addrs, values); ok {
		*w.co.add() = WaveOp{Kind: WaveVecStore, Addrs: a, Values: v}
		w.co.runOn()
		return
	}
	*w.co.add() = WaveOp{Kind: WaveVecStore, Addrs: addrs, Values: values}
	w.wait()
}

// Store writes a single word through the vector path.
func (w *Wave) Store(a memdata.Addr, v uint64) {
	w.addr1[0], w.val1[0] = a, v
	w.VecStore(w.addr1[:], w.val1[:])
}

// AtomicSys performs a system-scope (SLC) atomic, visible to the CPUs.
func (w *Wave) AtomicSys(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	*w.co.add() = WaveOp{Kind: WaveAtomicSys, Addr: a, AOp: op, Operand: operand, Compare: compare}
	return w.wait()[0]
}

// AtomicDev performs a device-scope (GLC) atomic at the TCC.
func (w *Wave) AtomicDev(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	*w.co.add() = WaveOp{Kind: WaveAtomicDev, Addr: a, AOp: op, Operand: operand, Compare: compare}
	return w.wait()[0]
}

// AtomicSysAdd adds delta at system scope, returning the old value.
func (w *Wave) AtomicSysAdd(a memdata.Addr, delta uint64) uint64 {
	return w.AtomicSys(memdata.AtomicAdd, a, delta, 0)
}

// AtomicDevAdd adds delta at device scope, returning the old value.
func (w *Wave) AtomicDevAdd(a memdata.Addr, delta uint64) uint64 {
	return w.AtomicDev(memdata.AtomicAdd, a, delta, 0)
}

// Barrier synchronizes all wavefronts of the workgroup.
func (w *Wave) Barrier() {
	*w.co.add() = WaveOp{Kind: WaveBarrier}
	w.wait()
}

// Compute advances the wavefront by the given number of GPU cycles.
func (w *Wave) Compute(gpuCycles uint64) {
	*w.co.add() = WaveOp{Kind: WaveCompute, Cycles: gpuCycles}
	w.co.runOn()
}

// NextOp hands out the wavefront's next operation, resuming the body
// when none is queued, or returns ok == false once the body Start
// loaded has returned and its every operation has been handed out; the
// slot is then idle. A panic in the body propagates out of NextOp and
// ends the slot.
func (w *Wave) NextOp() (WaveOp, bool) {
	co := &w.co
	if co.head == co.n {
		// The executor is done with every operation it took, so their
		// operand storage is free.
		w.nAddrs, w.nVals = 0, 0
		co.head, co.n = 0, 0
		co.next()
		if co.n == 0 {
			return WaveOp{}, co.ended()
		}
	}
	co.head++
	return co.q[co.head-1], true
}

// Complete records an operation's results (loaded values, or an
// atomic's old value in v[0]; nil for the rest). v needs to stay valid
// only until the wave's next NextOp: VecLoad appends it to the caller's
// buffer, and Load and the atomics read a single word. A queued
// operation's results are not read.
func (w *Wave) Complete(v []uint64) { w.res = v }

// Abort stops the slot: a body suspended in an op unwinds, a body
// loaded but not begun never runs, an idle slot's coroutine returns,
// queued operations are dropped, and later NextOps report false.
// Idempotent.
func (w *Wave) Abort() { w.co.abort() }

// Arena is a bump allocator carving benchmark data structures out of
// the unified memory space.
type Arena struct {
	next memdata.Addr
}

// NewArena starts allocating at base.
func NewArena(base memdata.Addr) *Arena { return &Arena{next: base} }

// Alloc reserves size bytes aligned to a cache line and returns the
// base address.
func (a *Arena) Alloc(size int) memdata.Addr {
	const line = 64
	a.next = (a.next + line - 1) &^ (line - 1)
	p := a.next
	a.next += memdata.Addr(size)
	return p
}

// AllocWords reserves n 8-byte words.
func (a *Arena) AllocWords(n int) memdata.Addr { return a.Alloc(n * 8) }
