package gpu

import (
	"testing"

	"hscsim/internal/gpucache"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/prog"
	"hscsim/internal/sim"
)

// grantDir is a minimal directory for GPU-side tests.
type grantDir struct {
	ic *noc.Interconnect
	id msg.NodeID
	fm *memdata.Memory
}

func (d *grantDir) Receive(m msg.Message) {
	switch m.Type {
	case msg.RdBlk:
		d.ic.Send(msg.Message{Type: msg.Resp, Addr: m.Addr, Src: d.id, Dst: m.Src, Grant: msg.GrantS})
	case msg.WT:
		d.ic.Send(msg.Message{Type: msg.WBAck, Addr: m.Addr, Src: d.id, Dst: m.Src})
	case msg.Atomic:
		old := d.fm.RMW(m.WordAddr, m.AOp, m.Operand, m.Compare)
		d.ic.Send(msg.Message{Type: msg.AtomicResp, Addr: m.Addr, Src: d.id, Dst: m.Src, Old: old})
	case msg.Flush:
		d.ic.Send(msg.Message{Type: msg.FlushAck, Addr: m.Addr, Src: d.id, Dst: m.Src})
	}
}

type gpuRig struct {
	t  testing.TB
	e  *sim.Engine
	d  *Dispatcher
	fm *memdata.Memory
}

// newGPURig builds a dispatcher over a GPU cache complex and a
// directory that grants everything; the test's cleanup stops its wave
// slots.
func newGPURig(t testing.TB, cfg Config) *gpuRig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 10_000_000
	ic := noc.New(e, noc.Config{Latency: 2})
	fm := memdata.New()
	dir := &grantDir{ic: ic, id: 9, fm: fm}
	ic.Register(9, dir)
	caches := gpucache.New(e, ic, []msg.NodeID{4}, 9, fm, gpucache.DefaultConfig(), cfg.NumCUs)
	d := New(e, caches, fm, cfg)
	t.Cleanup(d.Abort)
	return &gpuRig{t: t, e: e, d: d, fm: fm}
}

func (r *gpuRig) launch(k *prog.Kernel) *prog.KernelHandle {
	r.t.Helper()
	h := &prog.KernelHandle{}
	r.d.Launch(k, h)
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
	if !h.Done() {
		r.t.Fatal("kernel never completed")
	}
	return h
}

// TestKernelRunsAllWaves: a kernel with more waves than fit on the CUs
// at once runs every wave, each with its own IDs, the later ones in the
// slots earlier ones freed; the dispatcher keeps only as many slots as
// were resident.
func TestKernelRunsAllWaves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 2
	r := newGPURig(t, cfg)
	ran := make(map[[3]int]bool)
	k := &prog.Kernel{
		Name: "k", Workgroups: 6, WavesPerWG: 2,
		Fn: func(w *prog.Wave) {
			ran[[3]int{w.WG, w.Lane, w.Global}] = true
			w.Compute(uint64(1 + w.Global%3))
		},
	}
	r.launch(k)
	for g := 0; g < 12; g++ {
		if !ran[[3]int{g / 2, g % 2, g}] {
			t.Fatalf("wave %d did not run as lane %d of workgroup %d: ran %v", g, g%2, g/2, ran)
		}
	}
	if len(ran) != 12 || len(r.d.idle) != 8 {
		t.Fatalf("%d waves ran in %d slots, want 12 in 8 (2 CUs × 2 workgroups × 2 waves)", len(ran), len(r.d.idle))
	}
	if r.d.Busy() {
		t.Fatal("dispatcher still busy")
	}
}

func TestBarrierSynchronizesWorkgroup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 1
	r := newGPURig(t, cfg)
	phase1 := 0
	violations := 0
	k := &prog.Kernel{
		Name: "bar", Workgroups: 1, WavesPerWG: 4,
		Fn: func(w *prog.Wave) {
			w.Compute(uint64(10 * (w.Lane + 1))) // staggered arrival
			phase1++
			w.Barrier()
			if phase1 != 4 {
				violations++
			}
			w.Compute(4)
		},
	}
	r.launch(k)
	if violations != 0 {
		t.Fatalf("%d waves passed the barrier before all arrived", violations)
	}
}

func TestWorkgroupOccupancyCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 1
	cfg.MaxWGPerCU = 1
	r := newGPURig(t, cfg)
	resident := 0
	maxResident := 0
	k := &prog.Kernel{
		Name: "occ", Workgroups: 4, WavesPerWG: 1,
		Fn: func(w *prog.Wave) {
			resident++
			if resident > maxResident {
				maxResident = resident
			}
			w.Compute(50)
			resident--
		},
	}
	r.launch(k)
	if maxResident > 1 {
		t.Fatalf("max resident workgroups = %d, want 1", maxResident)
	}
}

func TestKernelsQueueSerially(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 1
	r := newGPURig(t, cfg)
	var order []string
	mk := func(name string) *prog.Kernel {
		return &prog.Kernel{Name: name, Workgroups: 1, WavesPerWG: 1,
			Fn: func(w *prog.Wave) {
				order = append(order, name)
				w.Compute(20)
			}}
	}
	h1, h2 := &prog.KernelHandle{}, &prog.KernelHandle{}
	r.d.Launch(mk("a"), h1)
	r.d.Launch(mk("b"), h2)
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !h1.Done() || !h2.Done() {
		t.Fatal("kernels not completed")
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestVecLoadStoreFunctionalValues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 1
	r := newGPURig(t, cfg)
	r.fm.Write(0, 5)
	r.fm.Write(8, 6)
	k := &prog.Kernel{
		Name: "v", Workgroups: 1, WavesPerWG: 1,
		Fn: func(w *prog.Wave) {
			vals := w.VecLoad(nil, []memdata.Addr{0, 8})
			w.VecStore([]memdata.Addr{16, 24}, []uint64{vals[0] * 2, vals[1] * 2})
		},
	}
	r.launch(k)
	if r.fm.Read(16) != 10 || r.fm.Read(24) != 12 {
		t.Fatalf("stores = %d,%d", r.fm.Read(16), r.fm.Read(24))
	}
}

func TestGpuTicksConversion(t *testing.T) {
	cfg := DefaultConfig() // 35/11
	r := newGPURig(t, cfg)
	if got := r.d.gpuTicks(11); got != 35 {
		t.Fatalf("gpuTicks(11) = %d, want 35", got)
	}
	if got := r.d.gpuTicks(1); got != 4 { // ceil(35/11)
		t.Fatalf("gpuTicks(1) = %d, want 4", got)
	}
	if got := r.d.gpuTicks(0); got != 4 { // clamped to one GPU cycle
		t.Fatalf("gpuTicks(0) = %d, want 4", got)
	}
}

func TestCoalesce(t *testing.T) {
	lines := coalesce(nil, []memdata.Addr{0, 8, 63, 64, 128, 65})
	if len(lines) != 3 || lines[0] != 0 || lines[1] != 1 || lines[2] != 2 {
		t.Fatalf("coalesce = %v", lines)
	}
}

func TestEmptyGridCompletes(t *testing.T) {
	cfg := DefaultConfig()
	r := newGPURig(t, cfg)
	k := &prog.Kernel{Name: "empty", Workgroups: 0, WavesPerWG: 1, Fn: func(w *prog.Wave) {}}
	r.launch(k)
}

func TestSystemAtomicFromWave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 1
	r := newGPURig(t, cfg)
	r.fm.Write(256, 41)
	var old uint64
	k := &prog.Kernel{
		Name: "at", Workgroups: 1, WavesPerWG: 1,
		Fn: func(w *prog.Wave) {
			old = w.AtomicSysAdd(256, 1)
		},
	}
	r.launch(k)
	if old != 41 || r.fm.Read(256) != 42 {
		t.Fatalf("old=%d val=%d", old, r.fm.Read(256))
	}
}

const allocOps = 200 // ops per wave in the steady-state allocation tests

// waveOpAllocs returns the steady-state allocations per op of one
// workgroup of waves that each repeat op: the difference between
// launches of 2n and n ops per wave, after a warm-up launch, so a
// launch's fixed cost (waves, coroutines, the release flush) cancels.
func waveOpAllocs(t *testing.T, wavesPerWG int, op func(w *prog.Wave)) float64 {
	cfg := DefaultConfig()
	cfg.NumCUs = 1
	r := newGPURig(t, cfg)
	launch := func(n int) float64 {
		k := &prog.Kernel{Name: "ops", Workgroups: 1, WavesPerWG: wavesPerWG,
			Fn: func(w *prog.Wave) {
				for i := 0; i < n; i++ {
					op(w)
				}
			}}
		return testing.AllocsPerRun(5, func() { r.launch(k) })
	}
	launch(4 * allocOps)
	return (launch(2*allocOps) - launch(allocOps)) / float64(wavesPerWG*allocOps)
}

// TestSteadyStateWaveOpAllocs: compute, barrier, single-word load,
// vector load and system atomic ops allocate nothing in the wave
// executor or the cache complex (gpucache.TestSteadyStateAllocs gates
// the latter alone). A VecLoad appends into the kernel's own buffer,
// which stops growing after the first op.
func TestSteadyStateWaveOpAllocs(t *testing.T) {
	addrs := []memdata.Addr{0, 8, 64, 72, 4096}
	var vals []uint64 // one wave at a time uses it
	for _, tc := range []struct {
		name       string
		wavesPerWG int
		op         func(w *prog.Wave)
		want       float64
	}{
		{"Compute", 1, func(w *prog.Wave) { w.Compute(4) }, 0},
		{"Barrier", 4, func(w *prog.Wave) { w.Barrier() }, 0},
		{"Load", 1, func(w *prog.Wave) { w.Load(8) }, 0},
		{"VecLoad", 1, func(w *prog.Wave) { vals = w.VecLoad(vals[:0], addrs) }, 0},
		{"AtomicSys", 1, func(w *prog.Wave) { w.AtomicSysAdd(256, 1) }, 0},
	} {
		if got := waveOpAllocs(t, tc.wavesPerWG, tc.op); got != tc.want {
			t.Errorf("%s allocates %g/op, want %g", tc.name, got, tc.want)
		}
	}
}

// relaunchKernel is a 16-workgroup × 2-wave kernel whose waves each
// issue a compute op, a system atomic and a load.
func relaunchKernel() *prog.Kernel {
	return &prog.Kernel{Name: "relaunch", Workgroups: 16, WavesPerWG: 2,
		Fn: func(w *prog.Wave) {
			w.Compute(4)
			w.AtomicSysAdd(256, 1)
			w.Load(memdata.Addr(64 * w.Global))
		}}
}

// maxRelaunchAllocs bounds a warm relaunch of relaunchKernel: the
// caller's KernelHandle, and nothing per kernel or wave.
const maxRelaunchAllocs = 1

// TestWarmRelaunchReusesWaveSlots: relaunching a kernel on a warm
// dispatcher starts its 32 waves in the slots, executors and coroutines
// the previous launch left idle, so it allocates no wave.
func TestWarmRelaunchReusesWaveSlots(t *testing.T) {
	r := newGPURig(t, DefaultConfig())
	k := relaunchKernel()
	r.launch(k)
	slots := len(r.d.idle)
	if got := testing.AllocsPerRun(10, func() { r.launch(k) }); got > maxRelaunchAllocs {
		t.Errorf("a warm relaunch allocates %.0f, want at most %d", got, maxRelaunchAllocs)
	}
	if len(r.d.idle) != slots || len(r.d.resident) != 0 {
		t.Errorf("%d idle and %d resident slots after relaunches, want %d and 0",
			len(r.d.idle), len(r.d.resident), slots)
	}
}

// BenchmarkKernelRelaunch measures a warm relaunch of a 16-workgroup ×
// 2-wave kernel on one dispatcher, to completion: dispatch, 96 wave
// ops through the caches and the release flush. The benchgate baseline
// gates its allocations.
func BenchmarkKernelRelaunch(b *testing.B) {
	r := newGPURig(b, DefaultConfig())
	k := relaunchKernel()
	r.launch(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.launch(k)
	}
}
