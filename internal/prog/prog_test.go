package prog

import (
	"slices"
	"testing"

	"hscsim/internal/memdata"
)

// newThread loads fn into a new thread slot as thread id, and aborts
// the slot when the test ends.
func newThread(tb testing.TB, id int, fn func(*CPUThread)) *CPUThread {
	th := NewCPUThread()
	th.Start(id, fn)
	tb.Cleanup(th.Abort)
	return th
}

// drive pulls ops from a thread and executes them against a plain
// functional memory, synchronously.
func drive(t *testing.T, th *CPUThread, fm *memdata.Memory) []Op {
	t.Helper()
	var ops []Op
	for {
		op, ok := th.NextOp()
		if !ok {
			return ops
		}
		ops = append(ops, op)
		switch op.Kind {
		case OpLoad:
			th.Complete(fm.Read(op.Addr))
		case OpStore:
			fm.Write(op.Addr, op.Value)
			th.Complete(0)
		case OpAtomic:
			th.Complete(fm.RMW(op.Addr, op.AOp, op.Value, op.Compare))
		default:
			th.Complete(0)
		}
	}
}

func TestThreadRendezvous(t *testing.T) {
	fm := memdata.New()
	var got uint64
	th := newThread(t, 0, func(c *CPUThread) {
		c.Store(8, 42)
		got = c.Load(8)
		c.Compute(10)
	})
	ops := drive(t, th, fm)
	if got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
	if len(ops) != 3 || ops[0].Kind != OpStore || ops[1].Kind != OpLoad || ops[2].Kind != OpCompute {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestAtomicHelpers(t *testing.T) {
	fm := memdata.New()
	var adds, cas, exch uint64
	th := newThread(t, 1, func(c *CPUThread) {
		adds = c.AtomicAdd(0, 5)   // 0 → 5
		cas = c.AtomicCAS(0, 5, 9) // 5 → 9
		exch = c.AtomicExch(0, 1)  // 9 → 1
	})
	drive(t, th, fm)
	if adds != 0 || cas != 5 || exch != 9 || fm.Read(0) != 1 {
		t.Fatalf("adds=%d cas=%d exch=%d final=%d", adds, cas, exch, fm.Read(0))
	}
	if th.ID() != 1 {
		t.Fatal("thread id lost")
	}
}

func TestSpinUntil(t *testing.T) {
	fm := memdata.New()
	th := newThread(t, 0, func(c *CPUThread) {
		v := c.SpinUntil(16, func(v uint64) bool { return v >= 3 })
		if v != 3 {
			t.Errorf("spin returned %d", v)
		}
	})
	polls := 0
	for {
		op, ok := th.NextOp()
		if !ok {
			break
		}
		if op.Kind == OpLoad {
			polls++
			fm.RMW(op.Addr, memdata.AtomicAdd, 1, 0)
			th.Complete(fm.Read(op.Addr))
		} else {
			th.Complete(0)
		}
	}
	if polls != 3 {
		t.Fatalf("polls = %d, want 3", polls)
	}
}

func TestAbortUnblocksThread(t *testing.T) {
	th := newThread(t, 0, func(c *CPUThread) {
		for {
			c.Load(0) // would spin forever
		}
	})
	if _, ok := th.NextOp(); !ok {
		t.Fatal("no first op")
	}
	th.Abort()
	th.Abort() // idempotent
	// The coroutine unwinds via the abort sentinel and ends, so NextOp
	// reports completion.
	if _, ok := th.NextOp(); ok {
		t.Fatal("aborted thread issued another op")
	}
}

// TestProgramPanicSurfacesFromNextOp: a program's own panic reaches the
// executor's NextOp with its value (the job engine turns it into a
// failed job), and the thread is finished afterwards.
func TestProgramPanicSurfacesFromNextOp(t *testing.T) {
	th := newThread(t, 0, func(c *CPUThread) {
		c.Load(0)
		panic("program bug")
	})
	if _, ok := th.NextOp(); !ok {
		t.Fatal("no first op")
	}
	th.Complete(0)
	func() {
		defer func() {
			if r := recover(); r != "program bug" {
				t.Fatalf("NextOp panicked with %v, want the program's value", r)
			}
		}()
		th.NextOp()
		t.Fatal("NextOp returned past the program's panic")
	}()
	if _, ok := th.NextOp(); ok {
		t.Fatal("panicked thread issued another op")
	}
	th.Abort() // no-op on a finished thread
}

// TestHandoffAllocs: a steady-state NextOp+Complete round trip
// allocates nothing.
func TestHandoffAllocs(t *testing.T) {
	th := newThread(t, 0, func(c *CPUThread) {
		for {
			c.Load(0)
		}
	})
	defer th.Abort()
	if got := testing.AllocsPerRun(100, func() {
		th.NextOp()
		th.Complete(0)
	}); got != 0 {
		t.Fatalf("handoff allocates %.1f/op, want 0", got)
	}
}

// BenchmarkHandoff measures one executor↔program round trip: NextOp
// resumes the program up to its next op and Complete hands back the
// result. The benchgate baseline pins it at 0 allocs/op.
func BenchmarkHandoff(b *testing.B) {
	th := newThread(b, 0, func(c *CPUThread) {
		for {
			c.Load(0)
		}
	})
	defer th.Abort()
	th.NextOp() // start the coroutine outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Complete(0)
		th.NextOp()
	}
}

// TestPrefixRunsAtFirstNextOp: the code before a thread's first op runs
// when the executor first pulls from it, never concurrently with other
// threads. Both threads write one plain map in their prefix; if either
// started at construction, the writes would race (the -race run fails,
// and a plain run can die with "concurrent map writes").
func TestPrefixRunsAtFirstNextOp(t *testing.T) {
	fm := memdata.New()
	shared := map[int]int{}
	var order []int
	threads := make([]*CPUThread, 2)
	for i := range threads {
		threads[i] = newThread(t, i, func(c *CPUThread) {
			shared[c.ID()] = len(shared)
			order = append(order, c.ID())
			c.Compute(1)
		})
	}
	for i := len(threads) - 1; i >= 0; i-- {
		drive(t, threads[i], fm)
	}
	if len(shared) != 2 || shared[1] != 0 || shared[0] != 1 {
		t.Fatalf("shared = %v, want thread 1's prefix first", shared)
	}
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("prefix order = %v, want the executor's pull order [1 0]", order)
	}
	// A thread aborted before its first op never starts.
	ran := false
	th := newThread(t, 2, func(c *CPUThread) { ran = true })
	th.Abort()
	if ran {
		t.Fatal("aborted thread ran its prefix")
	}
}

func TestDMAOps(t *testing.T) {
	th := newThread(t, 0, func(c *CPUThread) {
		c.DMAIn(0x100, 256)
		c.DMAOut(0x200, 128)
	})
	op1, _ := th.NextOp()
	th.Complete(0)
	op2, _ := th.NextOp()
	th.Complete(0)
	th.NextOp()
	if op1.Kind != OpDMA || !op1.DMAWrite || op1.DMABytes != 256 || op1.Addr != 0x100 {
		t.Fatalf("op1 = %+v", op1)
	}
	if op2.Kind != OpDMA || op2.DMAWrite || op2.DMABytes != 128 {
		t.Fatalf("op2 = %+v", op2)
	}
}

func TestLaunchAndWait(t *testing.T) {
	k := &Kernel{Name: "k", Workgroups: 1, WavesPerWG: 1}
	var handle *KernelHandle
	th := newThread(t, 0, func(c *CPUThread) {
		h := c.Launch(k)
		c.Wait(h)
		handle = h
	})
	op, _ := th.NextOp()
	if op.Kind != OpLaunch || op.Kernel != k {
		t.Fatalf("op = %+v", op)
	}
	op.Handle.CompleteKernel()
	th.Complete(0)
	op2, _ := th.NextOp()
	if op2.Kind != OpWait {
		t.Fatalf("op2 = %+v", op2)
	}
	if !op2.Handle.Done() {
		t.Fatal("handle should be done")
	}
	fired := false
	op2.Handle.OnDone(func() { fired = true })
	if !fired {
		t.Fatal("OnDone on a completed handle must fire immediately")
	}
	th.Complete(0)
	th.NextOp()
	if handle == nil || !handle.Done() {
		t.Fatal("wait did not observe completion")
	}
}

// TestThreadSlotRunsBodiesInTurn: one thread slot runs two bodies one
// after the other on its one coroutine. Each sees the ID Start gave it
// and its own results, and NextOp reports the end of each body.
func TestThreadSlotRunsBodiesInTurn(t *testing.T) {
	fm := memdata.New()
	fm.Write(0, 7)
	var ids []int
	var sum uint64
	body := func(c *CPUThread) {
		ids = append(ids, c.ID())
		v := c.Load(memdata.Addr(8 * c.ID()))
		c.Store(memdata.Addr(8*c.ID()+8), v+1)
		sum += v
	}
	th := newThread(t, 0, body)
	first := drive(t, th, fm)
	if !th.Idle() {
		t.Fatal("a slot whose body returned is not idle")
	}
	if _, ok := th.NextOp(); ok {
		t.Fatal("an idle slot issued an op")
	}
	th.Start(1, body)
	second := drive(t, th, fm)
	kinds := func(ops []Op) []OpKind {
		var k []OpKind
		for _, op := range ops {
			k = append(k, op.Kind)
		}
		return k
	}
	want := []OpKind{OpLoad, OpStore}
	if !slices.Equal(kinds(first), want) || !slices.Equal(kinds(second), want) {
		t.Fatalf("ops = %v then %v, want %v each", kinds(first), kinds(second), want)
	}
	if !slices.Equal(ids, []int{0, 1}) {
		t.Fatalf("bodies saw ids %v", ids)
	}
	// The second body loaded the first one's store: 7, then 8.
	if sum != 15 || fm.Read(16) != 9 {
		t.Fatalf("sum = %d, [16] = %d; want 15 and 9", sum, fm.Read(16))
	}
}

// TestThreadSlotAbortSkipsLoadedBody: a body loaded into a thread slot
// but not yet begun never runs once the slot is aborted, on a new slot
// and on one idle after an earlier body.
func TestThreadSlotAbortSkipsLoadedBody(t *testing.T) {
	ran := 0
	body := func(c *CPUThread) { ran++ }
	fresh := NewCPUThread()
	fresh.Start(0, body)
	fresh.Abort()

	used := newThread(t, 0, body)
	drive(t, used, memdata.New())
	used.Start(1, body)
	used.Abort()
	used.Abort() // idempotent
	for _, th := range []*CPUThread{fresh, used} {
		if _, ok := th.NextOp(); ok {
			t.Fatal("an aborted slot issued an op")
		}
		if th.Idle() {
			t.Fatal("an aborted slot reports idle")
		}
	}
	if ran != 1 {
		t.Fatalf("%d bodies ran, want only the one driven before Abort", ran)
	}
}

// TestThreadSlotPanicInLaterBody: a panic in a thread slot's second
// body surfaces from NextOp with its value, and the slot is finished
// after.
func TestThreadSlotPanicInLaterBody(t *testing.T) {
	th := newThread(t, 0, func(c *CPUThread) { c.Compute(1) })
	drive(t, th, memdata.New())
	th.Start(1, func(c *CPUThread) {
		c.Compute(1)
		panic("second body")
	})
	if _, ok := th.NextOp(); !ok {
		t.Fatal("no first op from the second body")
	}
	th.Complete(0)
	func() {
		defer func() {
			if r := recover(); r != "second body" {
				t.Fatalf("NextOp panicked with %v, want the body's value", r)
			}
		}()
		th.NextOp()
		t.Fatal("NextOp returned past the body's panic")
	}()
	if _, ok := th.NextOp(); ok {
		t.Fatal("a panicked slot issued another op")
	}
	if th.Idle() {
		t.Fatal("a panicked slot reports idle")
	}
}

func TestKernelHandleWaiters(t *testing.T) {
	h := &KernelHandle{}
	n := 0
	h.OnDone(func() { n++ })
	h.OnDone(func() { n++ })
	if n != 0 {
		t.Fatal("waiters fired early")
	}
	h.CompleteKernel()
	if n != 2 {
		t.Fatalf("waiters fired %d times", n)
	}
}

// driveWave runs the body loaded into w to its end against a plain
// functional memory and returns the kinds of the ops it issued. Like the
// gpu executor, it hands every load the same buffer: VecLoad must append
// it to the program's own, which outlives later ops.
func driveWave(w *Wave, fm *memdata.Memory) []WaveOpKind {
	var kinds []WaveOpKind
	var buf []uint64
	for {
		op, ok := w.NextOp()
		if !ok {
			return kinds
		}
		kinds = append(kinds, op.Kind)
		switch op.Kind {
		case WaveVecLoad:
			buf = buf[:0]
			for _, a := range op.Addrs {
				buf = append(buf, fm.Read(a))
			}
			w.Complete(buf)
		case WaveVecStore:
			for i, a := range op.Addrs {
				fm.Write(a, op.Values[i])
			}
			w.Complete(nil)
		default:
			w.Complete(nil)
		}
	}
}

func TestWaveRendezvous(t *testing.T) {
	fm := memdata.New()
	fm.Write(0, 11)
	fm.Write(8, 22)
	var vals, again []uint64
	w := NewWave()
	defer w.Abort()
	w.Start(0, 1, 2, func(wv *Wave) {
		vals = wv.VecLoad(nil, []memdata.Addr{0, 8})
		wv.Store(16, vals[0]+vals[1])
		again = wv.VecLoad(vals, []memdata.Addr{16, 0})
		wv.Barrier()
		wv.Compute(5)
	})
	if w.WG != 0 || w.Lane != 1 || w.Global != 2 {
		t.Fatal("wave ids wrong")
	}
	driveWave(w, fm)
	if vals[0] != 11 || vals[1] != 22 || fm.Read(16) != 33 {
		t.Fatalf("vals=%v sum=%d", vals, fm.Read(16))
	}
	if !slices.Equal(again, []uint64{11, 22, 33, 11}) || !slices.Equal(vals, []uint64{11, 22}) {
		t.Fatalf("second VecLoad appended to %v gives %v, want [11 22 33 11]", vals, again)
	}
}

func TestVecStoreLengthMismatchPanics(t *testing.T) {
	w := NewWave()
	defer w.Abort()
	w.Start(0, 0, 0, func(wv *Wave) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched VecStore did not panic")
			}
		}()
		wv.VecStore([]memdata.Addr{0, 8}, []uint64{1})
	})
	driveWave(w, memdata.New())
}

func TestWaveAtomicsAndAbort(t *testing.T) {
	w := NewWave()
	w.Start(0, 0, 0, func(wv *Wave) {
		wv.AtomicSysAdd(0, 1)
		wv.AtomicDevAdd(8, 2)
		wv.Load(16) // aborted here
	})
	op, _ := w.NextOp()
	if op.Kind != WaveAtomicSys || op.Operand != 1 {
		t.Fatalf("op = %+v", op)
	}
	w.Complete([]uint64{0})
	op, _ = w.NextOp()
	if op.Kind != WaveAtomicDev || op.Operand != 2 {
		t.Fatalf("op = %+v", op)
	}
	w.Complete([]uint64{0})
	if _, ok := w.NextOp(); !ok {
		t.Fatal("expected the load op")
	}
	w.Abort()
	if _, ok := w.NextOp(); ok {
		t.Fatal("aborted wave issued another op")
	}
}

// TestWaveSlotRunsBodiesInTurn: one slot runs two bodies one after
// the other on its one coroutine. Each sees the IDs Start gave it and
// its own results, and NextOp reports the end of each body.
func TestWaveSlotRunsBodiesInTurn(t *testing.T) {
	fm := memdata.New()
	fm.Write(0, 7)
	type seen struct{ wg, lane, global int }
	var ids []seen
	var sum uint64
	body := func(wv *Wave) {
		ids = append(ids, seen{wv.WG, wv.Lane, wv.Global})
		v := wv.Load(memdata.Addr(8 * wv.Global))
		wv.Store(memdata.Addr(8*wv.Global+8), v+1)
		sum += v
	}
	w := NewWave()
	defer w.Abort()
	w.Start(0, 0, 0, body)
	first := driveWave(w, fm)
	if _, ok := w.NextOp(); ok {
		t.Fatal("an idle slot issued an op")
	}
	w.Start(3, 1, 1, body)
	second := driveWave(w, fm)
	want := []WaveOpKind{WaveVecLoad, WaveVecStore}
	if !slices.Equal(first, want) || !slices.Equal(second, want) {
		t.Fatalf("ops = %v then %v, want %v each", first, second, want)
	}
	if !slices.Equal(ids, []seen{{0, 0, 0}, {3, 1, 1}}) {
		t.Fatalf("bodies saw ids %v", ids)
	}
	// The second body loaded the first one's store: 7, then 8.
	if sum != 15 || fm.Read(16) != 9 {
		t.Fatalf("sum = %d, [16] = %d; want 15 and 9", sum, fm.Read(16))
	}
}

// TestWaveSlotAbortSkipsLoadedBody: a body loaded into a slot but not
// yet begun never runs once the slot is aborted, on a new slot and on
// one idle after an earlier body.
func TestWaveSlotAbortSkipsLoadedBody(t *testing.T) {
	ran := 0
	body := func(wv *Wave) { ran++ }
	fresh := NewWave()
	fresh.Start(0, 0, 0, body)
	fresh.Abort()

	used := NewWave()
	used.Start(0, 0, 0, body)
	driveWave(used, memdata.New())
	used.Start(0, 0, 1, body)
	used.Abort()
	used.Abort() // idempotent
	for _, w := range []*Wave{fresh, used} {
		if _, ok := w.NextOp(); ok {
			t.Fatal("an aborted slot issued an op")
		}
	}
	if ran != 1 {
		t.Fatalf("%d bodies ran, want only the one driven before Abort", ran)
	}
}

// TestWaveSlotPanicInLaterBody: a panic in a slot's second body
// surfaces from NextOp with its value, and the slot is finished after.
func TestWaveSlotPanicInLaterBody(t *testing.T) {
	w := NewWave()
	defer w.Abort()
	w.Start(0, 0, 0, func(wv *Wave) { wv.Compute(1) })
	driveWave(w, memdata.New())
	w.Start(0, 0, 1, func(wv *Wave) {
		wv.Compute(1)
		panic("second body")
	})
	if _, ok := w.NextOp(); !ok {
		t.Fatal("no first op from the second body")
	}
	w.Complete(nil)
	func() {
		defer func() {
			if r := recover(); r != "second body" {
				t.Fatalf("NextOp panicked with %v, want the body's value", r)
			}
		}()
		w.NextOp()
		t.Fatal("NextOp returned past the body's panic")
	}()
	if _, ok := w.NextOp(); ok {
		t.Fatal("a panicked slot issued another op")
	}
}

func TestArena(t *testing.T) {
	a := NewArena(0x1000)
	p1 := a.Alloc(10)
	p2 := a.Alloc(100)
	p3 := a.AllocWords(4)
	if p1 != 0x1000 {
		t.Fatalf("p1 = %#x", p1)
	}
	if p2%64 != 0 || p2 <= p1 {
		t.Fatalf("p2 = %#x not line-aligned after p1", p2)
	}
	if p3%64 != 0 || p3 < p2+100 {
		t.Fatalf("p3 = %#x", p3)
	}
}
