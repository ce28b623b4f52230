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
	t  *testing.T
	e  *sim.Engine
	d  *Dispatcher
	fm *memdata.Memory
}

func newGPURig(t *testing.T, cfg Config) *gpuRig {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTicks = 10_000_000
	ic := noc.New(e, noc.Config{Latency: 2})
	fm := memdata.New()
	dir := &grantDir{ic: ic, id: 9, fm: fm}
	ic.Register(9, dir)
	gcfg := gpucache.DefaultConfig()
	gcfg.NumCUs = cfg.NumCUs
	caches := gpucache.New(e, ic, []msg.NodeID{4}, 9, fm, gcfg)
	d := New(e, caches, fm, cfg)
	return &gpuRig{t: t, e: e, d: d, fm: fm}
}

func (r *gpuRig) launch(k *prog.Kernel) *prog.KernelHandle {
	r.t.Helper()
	h := &prog.KernelHandle{}
	r.e.Schedule(0, func() { r.d.Launch(k, h) })
	if err := r.e.Run(); err != nil {
		r.t.Fatal(err)
	}
	if !h.Done() {
		r.t.Fatal("kernel never completed")
	}
	return h
}

func TestKernelRunsAllWaves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCUs = 2
	r := newGPURig(t, cfg)
	ran := make(map[int]bool)
	k := &prog.Kernel{
		Name: "k", Workgroups: 6, WavesPerWG: 2,
		Fn: func(w *prog.Wave) {
			ran[w.Global] = true
			w.Compute(4)
		},
	}
	r.launch(k)
	if len(ran) != 12 {
		t.Fatalf("ran %d waves, want 12", len(ran))
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
	r.e.Schedule(0, func() {
		r.d.Launch(mk("a"), h1)
		r.d.Launch(mk("b"), h2)
	})
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
			vals := w.VecLoad([]memdata.Addr{0, 8})
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

// TestSteadyStateWaveOpAllocs: compute, barrier, single-word load and
// system atomic ops allocate nothing in the wave executor or the cache
// complex (gpucache.TestSteadyStateAllocs gates the latter alone), and
// a VecLoad allocates exactly its result.
func TestSteadyStateWaveOpAllocs(t *testing.T) {
	addrs := []memdata.Addr{0, 8, 64, 72, 4096}
	for _, tc := range []struct {
		name       string
		wavesPerWG int
		op         func(w *prog.Wave)
		want       float64
	}{
		{"Compute", 1, func(w *prog.Wave) { w.Compute(4) }, 0},
		{"Barrier", 4, func(w *prog.Wave) { w.Barrier() }, 0},
		{"Load", 1, func(w *prog.Wave) { w.Load(8) }, 0},
		{"VecLoad", 1, func(w *prog.Wave) { w.VecLoad(addrs) }, 1},
		{"AtomicSys", 1, func(w *prog.Wave) { w.AtomicSysAdd(256, 1) }, 0},
	} {
		if got := waveOpAllocs(t, tc.wavesPerWG, tc.op); got != tc.want {
			t.Errorf("%s allocates %g/op, want %g", tc.name, got, tc.want)
		}
	}
}
