// Package gpu models the GPU compute side of the APU: a dispatcher that
// assigns kernel workgroups to Compute Units, and CUs that execute
// wavefront programs (package prog) with coalesced line-granular memory
// traffic through the VIPER caches (package gpucache).
package gpu

import (
	"slices"

	"hscsim/internal/cachearray"
	"hscsim/internal/fsm"
	"hscsim/internal/gpucache"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/sim"
)

// machine names the wavefront dispatcher's memory-operation dispatch
// machine in the transition tables extracted by internal/proto: which
// cache-complex action each wave op kind triggers. Dispatch is
// stateless, so every event uses the "-" state.
const machine = "gpu.wave"

// Config sets GPU dispatch parameters.
type Config struct {
	NumCUs int
	// MaxWGPerCU bounds concurrently resident workgroups per CU
	// (barriers require whole workgroups resident).
	MaxWGPerCU int
	// ClockNum/ClockDen convert GPU cycles to ticks: the paper's APU
	// runs the CPU at 3.5 GHz and the GPU at 1.1 GHz (Table III), so one
	// GPU cycle is 35/11 ticks.
	ClockNum, ClockDen uint64
	// IFetchEvery issues an SQC instruction fetch every N wave ops.
	IFetchEvery int
}

// DefaultConfig matches Table III.
func DefaultConfig() Config {
	return Config{NumCUs: 8, MaxWGPerCU: 2, ClockNum: 35, ClockDen: 11, IFetchEvery: 16}
}

// Dispatcher queues kernels and runs them one at a time (CHAI kernels
// launch serially per iteration), spreading workgroups across CUs.
type Dispatcher struct {
	engine *sim.Engine
	caches *gpucache.GPUCaches
	fm     *memdata.Memory
	cfg    Config

	queue   []launch // kernels waiting to start, oldest first
	active  launch   // the running kernel; k is nil when none runs
	flushed func()   // kernelFlushed, bound once

	// The running kernel's dispatch state, reset by startNext and
	// reused by every kernel.
	wavesLeft int
	cus       []cuState // per CU
	barriers  []barrier // per workgroup, reused across barriers and kernels

	// Wave slots: resident lists the waves started and not yet
	// finished, idle the slots free for the next wave to start. Every
	// slot's coroutine stays parked, mid-op or between waves, until
	// Abort stops it.
	resident []*waveRun
	idle     []*waveRun

	// rec records fired dispatch transitions for the static-vs-dynamic
	// cross-check (cmd/hscproto); nil (the default) disables recording.
	rec *fsm.Recorder

	Stats Stats
}

// Stats are the dispatcher's counters.
type Stats struct {
	Kernels   uint64 `stat:"kernels"`
	WaveOps   uint64 `stat:"wave_ops"`
	WavesDone uint64 `stat:"waves_done"`
}

type launch struct {
	k *prog.Kernel
	h *prog.KernelHandle
}

// cuState is one CU's share of the running kernel. CU cu runs
// workgroups cu, cu+NumCUs, cu+2·NumCUs, … in that order.
type cuState struct {
	next      int // next workgroup to start
	active    int // workgroups resident
	wavesDone int // finished waves (workgroup retirement)
}

// barrier collects a workgroup's waves until all have arrived.
type barrier struct {
	waiting []*waveRun
}

// waveRun is a wave slot: it executes one wavefront at a time on its
// prog.Wave, and the dispatcher keeps it, with its scratch buffers and
// callbacks, for the waves and kernels that follow. Like an in-order
// core it has at most one op in flight: the op lives in cur, its line
// accesses count down in pending, and the callbacks that finish it are
// bound once per slot, so issuing an op builds no closure.
type waveRun struct {
	d    *Dispatcher
	w    *prog.Wave
	cu   int
	opsN int
	idx  int // index in d.resident

	cur     prog.WaveOp
	pending int                   // line accesses of cur still outstanding
	lines   []cachearray.LineAddr // coalescer scratch
	vals    []uint64              // VecLoad results, valid until the next op
	old     [1]uint64             // atomic result
	cb      struct {
		execCur, lineRead, lineWritten func()
		atomicDone                     func(old uint64)
	}
}

// New creates the dispatcher.
func New(engine *sim.Engine, caches *gpucache.GPUCaches, fm *memdata.Memory,
	cfg Config) *Dispatcher {
	d := &Dispatcher{engine: engine, caches: caches, fm: fm, cfg: cfg,
		cus: make([]cuState, cfg.NumCUs)}
	d.flushed = d.kernelFlushed
	d.Reset()
	return d
}

// Reset returns the dispatcher to its just-constructed state: no
// kernel queued or running and zero counters. It keeps its wiring and
// storage, idle wave slots included; the slots of waves that had not
// finished are aborted and dropped.
func (d *Dispatcher) Reset() {
	clear(d.queue)
	d.queue = d.queue[:0]
	d.active = launch{}
	d.wavesLeft = 0
	clear(d.cus)
	for _, wr := range d.resident {
		wr.w.Abort()
	}
	clear(d.resident)
	d.resident = d.resident[:0]
	bs := d.barriers[:cap(d.barriers)]
	for i := range bs {
		clear(bs[i].waiting)
		bs[i].waiting = bs[i].waiting[:0]
	}
	d.barriers = d.barriers[:0]
	d.Stats = Stats{}
}

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (d *Dispatcher) SetRecorder(r *fsm.Recorder) { d.rec = r }

// Launch implements cpu.Dispatcher.
func (d *Dispatcher) Launch(k *prog.Kernel, h *prog.KernelHandle) {
	d.queue = append(d.queue, launch{k: k, h: h})
	if d.active.k == nil {
		d.startNext()
	}
}

// Busy reports whether a kernel is running or queued.
func (d *Dispatcher) Busy() bool { return d.active.k != nil || len(d.queue) > 0 }

func (d *Dispatcher) startNext() {
	if len(d.queue) == 0 {
		d.active = launch{}
		return
	}
	d.active = d.queue[0]
	d.queue = slices.Delete(d.queue, 0, 1)
	d.Stats.Kernels++

	k := d.active.k
	d.wavesLeft = k.Workgroups * k.WavesPerWG
	for cu := range d.cus {
		d.cus[cu] = cuState{next: cu}
	}
	if n := k.Workgroups; n > len(d.barriers) {
		// Entries past the length keep their empty waiting lists.
		d.barriers = slices.Grow(d.barriers, n-len(d.barriers))[:n]
	}
	// Kernel-launch acquire: invalidate the TCPs (VIPER acquire).
	for cu := range d.cus {
		d.caches.AcquireInvalidate(cu)
		d.fillCU(cu)
	}
	if d.wavesLeft == 0 { // empty grid
		d.finish()
	}
}

func (d *Dispatcher) fillCU(cu int) {
	c := &d.cus[cu]
	for c.active < d.cfg.MaxWGPerCU && c.next < d.active.k.Workgroups {
		wg := c.next
		c.next += len(d.cus)
		c.active++
		d.startWorkgroup(cu, wg)
	}
}

func (d *Dispatcher) startWorkgroup(cu, wg int) {
	k := d.active.k
	for lane := 0; lane < k.WavesPerWG; lane++ {
		wr := d.slot()
		wr.cu, wr.opsN, wr.idx = cu, 0, len(d.resident)
		wr.w.Start(wg, lane, wg*k.WavesPerWG+lane, k.Fn)
		d.resident = append(d.resident, wr)
		d.engine.Post(0, wr, waveKindStart, 0, nil)
	}
}

// slot returns an idle wave slot, making one when none is free. Which
// slot runs a wave never enters the event order.
func (d *Dispatcher) slot() *waveRun {
	if n := len(d.idle); n > 0 {
		wr := d.idle[n-1]
		d.idle = d.idle[:n-1]
		return wr
	}
	wr := &waveRun{d: d, w: prog.NewWave(d.fm)}
	wr.cb.execCur = wr.execCur
	wr.cb.lineRead = wr.lineRead
	wr.cb.lineWritten = wr.lineWritten
	wr.cb.atomicDone = wr.atomicDone
	return wr
}

// Abort stops the coroutine of every wave slot, resident or idle. A run
// calls it from its teardown: idle slots park between waves, and a run
// that ends early (MaxTicks, cancellation, a deadlock) leaves resident
// waves suspended mid-op.
func (d *Dispatcher) Abort() {
	for _, wr := range d.resident {
		wr.w.Abort()
	}
	for _, wr := range d.idle {
		wr.w.Abort()
	}
	d.resident, d.idle = nil, nil
}

// gpuTicks converts GPU cycles to engine ticks (rounded up).
func (d *Dispatcher) gpuTicks(c uint64) sim.Tick {
	if c == 0 {
		c = 1
	}
	return sim.Tick((c*d.cfg.ClockNum + d.cfg.ClockDen - 1) / d.cfg.ClockDen)
}

func (wr *waveRun) step() {
	op, ok := wr.w.NextOp()
	if !ok {
		wr.d.waveDone(wr)
		return
	}
	wr.d.Stats.WaveOps++
	wr.opsN++
	wr.cur = op
	if wr.d.cfg.IFetchEvery > 0 && wr.opsN%wr.d.cfg.IFetchEvery == 1 {
		code := wr.d.active.k.CodeAddr + memdata.Addr((wr.opsN/wr.d.cfg.IFetchEvery)%64*64)
		wr.d.caches.IFetch(wr.cu, cachearray.LineAddr(code>>6), wr.cb.execCur)
		return
	}
	wr.execCur()
}

// execCur executes the op in flight.
func (wr *waveRun) execCur() {
	d := wr.d
	op := &wr.cur
	switch op.Kind {
	case prog.WaveVecLoad:
		d.rec.Record(machine, "-", "VecLoad", "-") //proto:actions coalesce, TCP/TCC read per line
		wr.lines = coalesce(wr.lines[:0], op.Addrs)
		wr.pending = len(wr.lines)
		for _, ln := range wr.lines {
			d.caches.ReadLine(wr.cu, ln, wr.cb.lineRead)
		}

	case prog.WaveVecStore:
		d.rec.Record(machine, "-", "VecStore", "-") //proto:actions coalesce, TCC write per line
		wr.lines = coalesce(wr.lines[:0], op.Addrs)
		wr.pending = len(wr.lines)
		for _, ln := range wr.lines {
			d.caches.WriteLine(wr.cu, ln, wr.cb.lineWritten)
		}

	case prog.WaveAtomicSys:
		d.rec.Record(machine, "-", "AtomicSys", "-") //proto:actions system-scope atomic at directory
		d.caches.AtomicSystem(wr.cu, cachearray.LineAddr(op.Addr>>6), op.Addr,
			op.AOp, op.Operand, op.Compare, wr.cb.atomicDone)

	case prog.WaveAtomicDev:
		d.rec.Record(machine, "-", "AtomicDev", "-") //proto:actions device-scope atomic at TCC
		d.caches.AtomicDevice(wr.cu, cachearray.LineAddr(op.Addr>>6), op.Addr,
			op.AOp, op.Operand, op.Compare, wr.cb.atomicDone)

	case prog.WaveBarrier:
		d.rec.Record(machine, "-", "Barrier", "-") //proto:actions join workgroup barrier
		b := &d.barriers[wr.w.WG]
		b.waiting = append(b.waiting, wr)
		if len(b.waiting) == d.active.k.WavesPerWG {
			for _, r := range b.waiting {
				d.engine.Post(d.gpuTicks(4), r, waveKindResume, 0, nil)
			}
			b.waiting = b.waiting[:0]
		}

	case prog.WaveCompute:
		d.rec.Record(machine, "-", "Compute", "-") //proto:actions occupy ALU for op.Cycles
		d.engine.Post(d.gpuTicks(op.Cycles), wr, waveKindResume, 0, nil)
	}
}

// lineRead completes one line of a VecLoad; the last one reads the
// words.
func (wr *waveRun) lineRead() {
	wr.pending--
	if wr.pending > 0 {
		return
	}
	wr.vals = slices.Grow(wr.vals[:0], len(wr.cur.Addrs))
	for _, a := range wr.cur.Addrs {
		wr.vals = append(wr.vals, wr.d.fm.Read(a))
	}
	wr.resume(wr.vals)
}

// lineWritten completes one line of a VecStore; the last one writes the
// words.
func (wr *waveRun) lineWritten() {
	wr.pending--
	if wr.pending > 0 {
		return
	}
	for i, a := range wr.cur.Addrs {
		wr.d.fm.Write(a, wr.cur.Values[i])
	}
	wr.resume(nil)
}

func (wr *waveRun) atomicDone(old uint64) {
	wr.old[0] = old
	wr.resume(wr.old[:])
}

// waveRun event kinds (sim.Handler dispatch).
const (
	waveKindStart  uint8 = iota // pull the wave's first op
	waveKindResume              // a compute op ended or the barrier released
)

// OnEvent implements sim.Handler.
func (wr *waveRun) OnEvent(kind uint8, arg uint64, obj any) {
	if kind == waveKindStart {
		wr.step()
		return
	}
	wr.resume(nil)
}

func (wr *waveRun) resume(vals []uint64) {
	wr.w.Complete(vals)
	wr.step()
}

func (d *Dispatcher) waveDone(wr *waveRun) {
	d.Stats.WavesDone++
	last := d.resident[len(d.resident)-1]
	last.idx = wr.idx
	d.resident[wr.idx] = last
	d.resident[len(d.resident)-1] = nil
	d.resident = d.resident[:len(d.resident)-1]
	d.idle = append(d.idle, wr)
	d.wavesLeft--
	// Workgroups retire at wave granularity: every WavesPerWG-th wave
	// to finish on a CU frees one of its workgroup places for the
	// CU's next workgroup.
	cu := wr.cu
	c := &d.cus[cu]
	c.wavesDone++
	if c.wavesDone%d.active.k.WavesPerWG == 0 {
		c.active--
		d.fillCU(cu)
	}
	if d.wavesLeft == 0 {
		d.finish()
	}
}

// finish releases the kernel once its last wave is done: a flush (WB
// mode) and a fence at the directory, then kernelFlushed.
func (d *Dispatcher) finish() { d.caches.ReleaseFlush(d.flushed) }

// kernelFlushed signals the host and starts the next queued kernel.
func (d *Dispatcher) kernelFlushed() {
	d.active.h.CompleteKernel()
	d.startNext()
}

// coalesce appends to dst the sorted, deduplicated line addresses of
// addrs (the per-wavefront coalescer) and returns the result.
func coalesce(dst []cachearray.LineAddr, addrs []memdata.Addr) []cachearray.LineAddr {
	for _, a := range addrs {
		dst = append(dst, cachearray.LineAddr(a>>6))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}
