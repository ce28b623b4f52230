package sim

import (
	"errors"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same tick: FIFO
	e.Schedule(20, func() { order = append(order, 4) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
	if e.Executed() != 4 {
		t.Fatalf("Executed = %d, want 4", e.Executed())
	}
}

func TestSameTickFIFOWithinHandler(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(1, func() {
		e.Schedule(0, func() { order = append(order, 2) })
		order = append(order, 1)
	})
	e.Schedule(1, func() { order = append(order, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The zero-delay event scheduled from inside a tick-1 handler runs
	// after events already queued for tick 1.
	if order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestAtAbsolute(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(42, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 42 {
		t.Fatalf("fired=%v now=%d", fired, e.Now())
	}
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(5, func() { fired = true })
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel(ev)       // double-cancel is safe
	e.Cancel(Handle{}) // zero handle is safe
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := e.Schedule(1, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The pool has recycled the Event; schedule something new that will
	// reuse it, then cancel the stale handle — the new event must still
	// fire (generation mismatch makes the cancel a no-op).
	reused := false
	e.Schedule(1, func() { reused = true })
	e.Cancel(h)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || !reused {
		t.Fatalf("fired=%d reused=%v; stale cancel hit a recycled event", fired, reused)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ran %d events after Stop, want 1", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestMaxTicks(t *testing.T) {
	e := NewEngine()
	e.MaxTicks = 100
	var loop func()
	loop = func() { e.Schedule(10, loop) }
	e.Schedule(10, loop)
	if err := e.Run(); err == nil {
		t.Fatal("expected MaxTicks error")
	}
}

// TestMaxTicksReleasesPoppedEvent pins a leak once present in step():
// the MaxTicks abort path popped the over-limit event off the queue
// and returned without releasing it, so every abort bled one event
// (and its target/obj references) out of the free list.
func TestMaxTicksReleasesPoppedEvent(t *testing.T) {
	e := NewEngine()
	e.MaxTicks = 5
	e.Schedule(10, func() { t.Fatal("event beyond MaxTicks must not fire") })
	if err := e.Run(); err == nil {
		t.Fatal("expected MaxTicks error")
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after MaxTicks abort, want 1 (popped event leaked)", len(e.free))
	}
	// The recycled event must be fully neutral: a poisoned fn/obj here
	// would resurrect the aborted dispatch on the next Schedule.
	ev := e.free[0]
	if ev.fn != nil || ev.target != nil || ev.obj != nil {
		t.Fatal("released event still references its cancelled dispatch")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Ticker(10, func() bool {
		n++
		return n < 5
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ticker fired %d times, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero ticker period did not panic")
		}
	}()
	NewEngine().Ticker(0, func() bool { return false })
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			e.Schedule(Tick(i%7), func() { order = append(order, i) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestOverflowPromotion schedules far beyond the calendar window so
// events land in the overflow heap, interleaved with near events, and
// checks global (tick, seq) order survives window advances.
func TestOverflowPromotion(t *testing.T) {
	e := NewEngine()
	var order []int
	// Far-future events first (lower seq), spanning several windows.
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(Tick(10000+10*i), func() { order = append(order, 100+i) })
	}
	// Same far tick as the first, scheduled later: must fire after it.
	e.Schedule(10000, func() { order = append(order, 200) })
	// Near events fire first.
	e.Schedule(3, func() { order = append(order, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 100, 200, 101, 102, 103, 104, 105, 106, 107}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 10070 {
		t.Fatalf("Now = %d, want 10070", e.Now())
	}
}

// TestSparseWindowJumps walks a single chain across huge tick gaps —
// every hop crosses multiple whole windows, exercising the jump-to-
// overflow-minimum path rather than tick-by-tick scanning.
func TestSparseWindowJumps(t *testing.T) {
	e := NewEngine()
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 50 {
			e.Schedule(1_000_003, hop) // prime: never window-aligned
		}
	}
	e.Schedule(1, hop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hops != 50 || e.Now() != 1+49*1_000_003 {
		t.Fatalf("hops=%d now=%d", hops, e.Now())
	}
}

// TestWindowGrowth floods the overflow heap with a wide tick spread so
// the adaptive window doubles, and checks ordering is preserved through
// the regrow (growth happens while every bucket is empty, so only the
// promotion path is affected).
func TestWindowGrowth(t *testing.T) {
	e := NewEngine()
	var order []int
	const n = 3 * minBuckets
	for i := 0; i < n; i++ {
		i := i
		// Spread over [500, 500+4n): far outside the initial window,
		// wider than maxBuckets once grown.
		e.Schedule(Tick(500+4*(n-1-i)), func() { order = append(order, n-1-i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.buckets) <= minBuckets {
		t.Fatalf("window did not grow: %d buckets", len(e.buckets))
	}
	for i := 0; i < n; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d", i, order[i], i)
		}
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(kind uint8, arg uint64, obj any) {}

type recordingHandler struct {
	kinds []uint8
	args  []uint64
	objs  []any
}

func (r *recordingHandler) OnEvent(kind uint8, arg uint64, obj any) {
	r.kinds = append(r.kinds, kind)
	r.args = append(r.args, arg)
	r.objs = append(r.objs, obj)
}

// TestPostDispatch checks the (target, kind, arg, obj) form delivers
// payloads intact and interleaves with closure events in (tick, seq)
// order.
func TestPostDispatch(t *testing.T) {
	e := NewEngine()
	r := &recordingHandler{}
	var order []string
	payload := &struct{ x int }{7}
	e.Post(5, r, 3, 42, payload)
	e.Schedule(5, func() { order = append(order, "closure") })
	e.PostAt(2, r, 9, 1, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.kinds) != 2 || r.kinds[0] != 9 || r.kinds[1] != 3 {
		t.Fatalf("kinds = %v", r.kinds)
	}
	if r.args[0] != 1 || r.args[1] != 42 || r.objs[1] != any(payload) {
		t.Fatalf("args = %v objs = %v", r.args, r.objs)
	}
	if len(order) != 1 {
		t.Fatalf("closure did not interleave: %v", order)
	}
}

// TestPostCancel cancels a dispatch-form event through its handle.
func TestPostCancel(t *testing.T) {
	e := NewEngine()
	r := &recordingHandler{}
	h := e.Post(5, r, 1, 0, nil)
	e.Cancel(h)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.kinds) != 0 {
		t.Fatalf("cancelled dispatch event fired: %v", r.kinds)
	}
}

// TestStepEnforcesMaxTicks is the regression test for the seed
// Run/Step inconsistency: Step used to ignore MaxTicks entirely, so a
// Step-driven drain could run past the livelock safety net forever.
func TestStepEnforcesMaxTicks(t *testing.T) {
	e := NewEngine()
	e.MaxTicks = 100
	var loop func()
	loop = func() { e.Schedule(10, loop) }
	e.Schedule(10, loop)
	steps := 0
	for {
		ok, err := e.Step()
		if err != nil {
			break
		}
		if !ok {
			t.Fatal("queue drained; expected MaxTicks error")
		}
		steps++
		if steps > 1000 {
			t.Fatal("Step ignored MaxTicks")
		}
	}
	if steps != 10 {
		t.Fatalf("executed %d events before the tick limit, want 10", steps)
	}
}

// TestStepPollsInterrupt is the other half of the Run/Step unification:
// a closed Interrupt channel must stop a Step-driven loop at the same
// poll cadence as Run.
func TestStepPollsInterrupt(t *testing.T) {
	e := NewEngine()
	stop := make(chan struct{})
	close(stop)
	e.Interrupt = stop
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(1, loop)
	steps := 0
	for {
		ok, err := e.Step()
		if errors.Is(err, ErrInterrupted) {
			break
		}
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		steps++
		if steps > 2*interruptPollInterval {
			t.Fatal("Step never polled Interrupt")
		}
	}
	// The interrupt error arrives on the poll tick, alongside an
	// executed event.
	if e.Executed() != interruptPollInterval {
		t.Fatalf("Executed = %d, want %d", e.Executed(), interruptPollInterval)
	}
}

// TestStepRunEquivalence drives the same workload once with Run and
// once with a Step loop and requires identical final state.
func TestStepRunEquivalence(t *testing.T) {
	build := func(e *Engine) {
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Tick(i%13), func() {
				if i%3 == 0 {
					e.Schedule(Tick(i%5), func() {})
				}
			})
		}
	}
	a := NewEngine()
	build(a)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	b := NewEngine()
	build(b)
	for {
		ok, err := b.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if a.Now() != b.Now() || a.Executed() != b.Executed() || a.Pending() != b.Pending() {
		t.Fatalf("Run (%d,%d,%d) != Step loop (%d,%d,%d)",
			a.Now(), a.Executed(), a.Pending(), b.Now(), b.Executed(), b.Pending())
	}
}

// TestScheduleSteadyStateAllocs is the alloc gate for the tentpole:
// once the pool is warm, Schedule + fire must not allocate.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n%1000 != 0 {
			e.Schedule(Tick(n%7), chain)
		}
	}
	// Warm the pool, the bucket slices, and the free list.
	e.Schedule(1, chain)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(1, chain)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Schedule+Run allocates %.1f/op, want 0", allocs)
	}
	var nop nopHandler
	allocs = testing.AllocsPerRun(100, func() {
		e.Post(1, &nop, 1, 99, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Post+Run allocates %.1f/op, want 0", allocs)
	}
}

func TestInterrupt(t *testing.T) {
	e := NewEngine()
	stop := make(chan struct{})
	e.Interrupt = stop
	executed := 0
	// A self-perpetuating event chain that would never drain on its own.
	var step func()
	step = func() {
		executed++
		if executed == interruptPollInterval+1 {
			close(stop)
		}
		e.Schedule(1, step)
	}
	e.Schedule(0, step)
	err := e.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run = %v, want ErrInterrupted", err)
	}
	// The poll fires on multiples of the interval, so the run stopped at
	// the first poll after the close.
	if executed > 3*interruptPollInterval {
		t.Fatalf("ran %d events after interrupt", executed)
	}
}

func TestInterruptNeverFiredIsIdentity(t *testing.T) {
	run := func(interrupt bool) (Tick, uint64) {
		e := NewEngine()
		if interrupt {
			e.Interrupt = make(chan struct{}) // never closed
		}
		n := 0
		var step func()
		step = func() {
			n++
			if n < 3*interruptPollInterval {
				e.Schedule(1, step)
			}
		}
		e.Schedule(0, step)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Executed()
	}
	aNow, aExec := run(false)
	bNow, bExec := run(true)
	if aNow != bNow || aExec != bExec {
		t.Fatalf("armed-but-idle interrupt changed the run: (%d,%d) vs (%d,%d)", aNow, aExec, bNow, bExec)
	}
}
