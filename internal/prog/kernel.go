//go:build go1.23

package prog

import (
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

	// waveEnd is what a slot yields when a body returns; NextOp reports
	// it as the end of the wave.
	waveEnd
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

// Wave is the context a wavefront program runs against. It is a slot:
// one resident wave's coroutine, which runs the bodies Start loads one
// after another, as a CU runs successive wavefronts in a fixed set of
// wave slots. The executor keeps the slot, and the callbacks it binds
// to it, across waves and kernels.
type Wave struct {
	WG     int // workgroup index
	Lane   int // wavefront index within the workgroup
	Global int // global wavefront index

	co  coroutine[WaveOp]
	fn  func(*Wave) // the body Start loaded, until it begins
	res []uint64

	// Single-word Load/Store operands: the executor reads them only
	// while the wave is suspended on that op.
	addr1 [1]memdata.Addr
	val1  [1]uint64
}

// NewWave returns an idle slot; Start loads its first body. Its
// coroutine starts at the first NextOp and parks between bodies, so an
// executor must Abort every slot it made once the run ends.
func NewWave() *Wave {
	w := &Wave{}
	w.co.init(w.run)
	return w
}

// Start loads the next wave body into an idle slot (new, or one whose
// NextOp has reported the end of its last body): fn runs as wavefront
// global, lane lane of workgroup wg, from the slot's next NextOp.
func (w *Wave) Start(wg, lane, global int, fn func(*Wave)) {
	w.WG, w.Lane, w.Global = wg, lane, global
	w.fn, w.res = fn, nil
}

// run is the slot's coroutine: each loaded body in turn, with a waveEnd
// yield after each. A stop there ends the coroutine; a stop while a
// body is suspended in an op unwinds that body (coroutine.issue).
func (w *Wave) run() {
	for {
		if fn := w.fn; fn != nil {
			w.fn = nil
			fn(w)
		}
		if !w.co.yield(WaveOp{Kind: waveEnd}) {
			return
		}
	}
}

func (w *Wave) do(op WaveOp) []uint64 {
	w.co.issue(op)
	return w.res
}

// VecLoad performs a coalesced vector load of the given word addresses,
// appends their values to dst and returns the extended slice, in the
// style of strconv.AppendInt. dst is the caller's own buffer: a kernel
// that passes the same one, truncated, to every load allocates nothing
// once it has grown, and the values stay valid across later ops until
// the kernel reuses it.
func (w *Wave) VecLoad(dst []uint64, addrs []memdata.Addr) []uint64 {
	return append(dst, w.do(WaveOp{Kind: WaveVecLoad, Addrs: addrs})...)
}

// Load reads a single word through the vector path.
func (w *Wave) Load(a memdata.Addr) uint64 {
	w.addr1[0] = a
	return w.do(WaveOp{Kind: WaveVecLoad, Addrs: w.addr1[:]})[0]
}

// VecStore performs a coalesced vector store of values to addrs
// (len(values) must equal len(addrs)).
func (w *Wave) VecStore(addrs []memdata.Addr, values []uint64) {
	if len(addrs) != len(values) {
		panic("prog: VecStore length mismatch")
	}
	w.do(WaveOp{Kind: WaveVecStore, Addrs: addrs, Values: values})
}

// Store writes a single word through the vector path.
func (w *Wave) Store(a memdata.Addr, v uint64) {
	w.addr1[0], w.val1[0] = a, v
	w.VecStore(w.addr1[:], w.val1[:])
}

// AtomicSys performs a system-scope (SLC) atomic, visible to the CPUs.
func (w *Wave) AtomicSys(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	return w.do(WaveOp{Kind: WaveAtomicSys, Addr: a, AOp: op, Operand: operand, Compare: compare})[0]
}

// AtomicDev performs a device-scope (GLC) atomic at the TCC.
func (w *Wave) AtomicDev(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	return w.do(WaveOp{Kind: WaveAtomicDev, Addr: a, AOp: op, Operand: operand, Compare: compare})[0]
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
func (w *Wave) Barrier() { w.do(WaveOp{Kind: WaveBarrier}) }

// Compute advances the wavefront by the given number of GPU cycles.
func (w *Wave) Compute(gpuCycles uint64) { w.do(WaveOp{Kind: WaveCompute, Cycles: gpuCycles}) }

// NextOp resumes the wavefront until its next operation, or returns
// ok == false once the body Start loaded has returned; the slot is then
// idle. A panic in the body propagates out of NextOp and ends the slot.
func (w *Wave) NextOp() (WaveOp, bool) {
	op, ok := w.co.next()
	return op, ok && op.Kind != waveEnd
}

// Complete records an operation's results (loaded values, or an
// atomic's old value in v[0]; nil for the rest). v needs to stay valid
// only until the wave's next NextOp: VecLoad appends it to the caller's
// buffer, and Load and the atomics read a single word.
func (w *Wave) Complete(v []uint64) { w.res = v }

// Abort stops the slot: a body suspended in an op unwinds, a body
// loaded but not begun never runs, an idle slot's coroutine returns,
// and later NextOps report false. Idempotent.
func (w *Wave) Abort() { w.co.stop() }

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
