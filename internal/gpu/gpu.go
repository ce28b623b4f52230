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

	queue  []*launch
	active *launch

	// resident lists the waves started and not yet finished, so a run
	// torn down early can stop their coroutines (Abort).
	resident []*waveRun

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

	wavesLeft  int
	cuQueues   [][]int   // per-CU list of assigned workgroups
	cuActive   []int     // workgroups currently resident per CU
	cuWaveDone []int     // per-CU finished-wave count (workgroup retirement)
	barriers   []barrier // per workgroup, reused across its barriers
}

// barrier collects a workgroup's waves until all have arrived.
type barrier struct {
	waiting []*waveRun
}

// waveRun executes one wavefront. Like an in-order core it has at most
// one op in flight: the op lives in cur, its line accesses count down
// in pending, and the callbacks that finish it are bound once per wave,
// so issuing an op builds no closure.
type waveRun struct {
	d    *Dispatcher
	l    *launch
	w    *prog.Wave
	cu   int
	opsN int
	slot int // index in d.resident

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
	return &Dispatcher{engine: engine, caches: caches, fm: fm, cfg: cfg}
}

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (d *Dispatcher) SetRecorder(r *fsm.Recorder) { d.rec = r }

// Launch implements cpu.Dispatcher.
func (d *Dispatcher) Launch(k *prog.Kernel, h *prog.KernelHandle) {
	d.queue = append(d.queue, &launch{k: k, h: h})
	if d.active == nil {
		d.startNext()
	}
}

// Busy reports whether a kernel is running or queued.
func (d *Dispatcher) Busy() bool { return d.active != nil || len(d.queue) > 0 }

func (d *Dispatcher) startNext() {
	if len(d.queue) == 0 {
		d.active = nil
		return
	}
	l := d.queue[0]
	d.queue = d.queue[1:]
	d.active = l
	d.Stats.Kernels++

	l.wavesLeft = l.k.Workgroups * l.k.WavesPerWG
	l.cuQueues = make([][]int, d.cfg.NumCUs)
	l.cuActive = make([]int, d.cfg.NumCUs)
	l.barriers = make([]barrier, l.k.Workgroups)
	for wg := 0; wg < l.k.Workgroups; wg++ {
		cu := wg % d.cfg.NumCUs
		l.cuQueues[cu] = append(l.cuQueues[cu], wg)
	}
	// Kernel-launch acquire: invalidate the TCPs (VIPER acquire).
	for cu := 0; cu < d.cfg.NumCUs; cu++ {
		d.caches.AcquireInvalidate(cu)
		d.fillCU(l, cu)
	}
	if l.wavesLeft == 0 { // empty grid
		d.finish(l)
	}
}

func (d *Dispatcher) fillCU(l *launch, cu int) {
	for l.cuActive[cu] < d.cfg.MaxWGPerCU && len(l.cuQueues[cu]) > 0 {
		wg := l.cuQueues[cu][0]
		l.cuQueues[cu] = l.cuQueues[cu][1:]
		l.cuActive[cu]++
		d.startWorkgroup(l, cu, wg)
	}
}

func (d *Dispatcher) startWorkgroup(l *launch, cu, wg int) {
	for lane := 0; lane < l.k.WavesPerWG; lane++ {
		global := wg*l.k.WavesPerWG + lane
		wr := &waveRun{d: d, l: l, cu: cu, slot: len(d.resident)}
		wr.w = prog.NewWave(wg, lane, global, l.k.Fn)
		wr.cb.execCur = wr.execCur
		wr.cb.lineRead = wr.lineRead
		wr.cb.lineWritten = wr.lineWritten
		wr.cb.atomicDone = wr.atomicDone
		d.resident = append(d.resident, wr)
		d.engine.Post(0, wr, waveKindStart, 0, nil)
	}
}

// Abort stops the coroutine of every wave still resident. A run that
// ends early (MaxTicks, cancellation, a deadlock) calls it from its
// teardown; waves that finished have already returned.
func (d *Dispatcher) Abort() {
	for _, wr := range d.resident {
		wr.w.Abort()
	}
	d.resident = nil
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
		code := wr.l.k.CodeAddr + memdata.Addr((wr.opsN/wr.d.cfg.IFetchEvery)%64*64)
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
		b := &wr.l.barriers[wr.w.WG]
		b.waiting = append(b.waiting, wr)
		if len(b.waiting) == wr.l.k.WavesPerWG {
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
	last.slot = wr.slot
	d.resident[wr.slot] = last
	d.resident[len(d.resident)-1] = nil
	d.resident = d.resident[:len(d.resident)-1]
	l := wr.l
	l.wavesLeft--
	// Track workgroup retirement: when every wave of the CU's resident
	// workgroups has finished we can bring in the next workgroup. We
	// retire at wave granularity: a workgroup slot frees after
	// WavesPerWG waves of that CU finish.
	wgWaves := l.k.WavesPerWG
	if wgDone := wr.countCUWaveDone(wgWaves); wgDone {
		l.cuActive[wr.cu]--
		d.fillCU(l, wr.cu)
	}
	if l.wavesLeft == 0 {
		d.finish(l)
	}
}

// countCUWaveDone tracks per-CU finished waves; every WavesPerWG-th
// completion frees one workgroup slot.
func (wr *waveRun) countCUWaveDone(wavesPerWG int) bool {
	l := wr.l
	if l.cuWaveDone == nil {
		l.cuWaveDone = make([]int, len(l.cuActive))
	}
	l.cuWaveDone[wr.cu]++
	return l.cuWaveDone[wr.cu]%wavesPerWG == 0
}

func (d *Dispatcher) finish(l *launch) {
	// Kernel-end release: flush (WB mode) and fence at the directory,
	// then signal the host.
	d.caches.ReleaseFlush(func() {
		l.h.CompleteKernel()
		d.startNext()
	})
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
