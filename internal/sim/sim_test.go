package sim

import (
	"errors"
	"slices"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	r := &recordingHandler{}
	e.Post(10, r, 0, 2, nil)
	e.Post(5, r, 0, 1, nil)
	e.Post(10, r, 0, 3, nil) // same tick: FIFO
	e.Post(20, r, 0, 4, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 3, 4}; !slices.Equal(r.args, want) {
		t.Fatalf("order = %v, want %v", r.args, want)
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
	e.Post(1, funcHandler{}, 0, 0, func() {
		e.Post(0, funcHandler{}, 0, 0, func() { order = append(order, 2) })
		order = append(order, 1)
	})
	e.Post(1, funcHandler{}, 0, 0, func() { order = append(order, 3) })
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
	r := &recordingHandler{}
	e.PostAt(42, r, 0, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.kinds) != 1 || e.Now() != 42 {
		t.Fatalf("fired=%d now=%d", len(r.kinds), e.Now())
	}
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Post(10, funcHandler{}, 0, 0, func() {
		defer func() {
			if recover() == nil {
				t.Error("PostAt in the past did not panic")
			}
		}()
		e.PostAt(5, nopHandler{}, 0, 0, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxTicks(t *testing.T) {
	e := NewEngine()
	e.MaxTicks = 100
	var loop func()
	loop = func() { e.Post(10, funcHandler{}, 0, 0, loop) }
	e.Post(10, funcHandler{}, 0, 0, loop)
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
	e.Post(10, funcHandler{}, 0, 0, func() { t.Fatal("event beyond MaxTicks must not fire") })
	if err := e.Run(); err == nil {
		t.Fatal("expected MaxTicks error")
	}
	ev := e.free
	if ev == nil || ev.next != nil {
		t.Fatal("free list does not hold exactly the one event after a MaxTicks abort (popped event leaked)")
	}
	// The recycled event must be fully neutral: a target or obj left
	// here would pin the aborted dispatch's handler and payload.
	if ev.target != nil || ev.obj != nil {
		t.Fatal("released event still references its aborted dispatch")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine()
		r := &recordingHandler{}
		for i := 0; i < 100; i++ {
			e.Post(Tick(i%7), r, 0, uint64(i), nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return r.args
	}
	a, b := run(), run()
	if len(a) != 100 || !slices.Equal(a, b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestOverflowPromotion schedules far beyond the calendar window so
// events land in the overflow heap, interleaved with near events, and
// checks global (tick, seq) order survives window advances.
func TestOverflowPromotion(t *testing.T) {
	e := NewEngine()
	r := &recordingHandler{}
	// Far-future events first (lower seq), spanning several windows.
	for i := 0; i < 8; i++ {
		e.Post(Tick(10000+10*i), r, 0, uint64(100+i), nil)
	}
	// Same far tick as the first, posted later: must fire after it.
	e.Post(10000, r, 0, 200, nil)
	// Near events fire first.
	e.Post(3, r, 0, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 100, 200, 101, 102, 103, 104, 105, 106, 107}; !slices.Equal(r.args, want) {
		t.Fatalf("order = %v, want %v", r.args, want)
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
			e.Post(1_000_003, funcHandler{}, 0, 0, hop) // prime: never window-aligned
		}
	}
	e.Post(1, funcHandler{}, 0, 0, hop)
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
	r := &recordingHandler{}
	const n = 3 * minBuckets
	for i := 0; i < n; i++ {
		// Spread over [500, 500+4n): far outside the initial window,
		// wider than maxBuckets once grown.
		e.Post(Tick(500+4*(n-1-i)), r, 0, uint64(n-1-i), nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.buckets) <= minBuckets {
		t.Fatalf("window did not grow: %d buckets", len(e.buckets))
	}
	for i := 0; i < n; i++ {
		if r.args[i] != uint64(i) {
			t.Fatalf("order[%d] = %d, want %d", i, r.args[i], i)
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

// TestPostDispatch checks Post and PostAt deliver (kind, arg, obj)
// intact and interleave two handlers' events in (tick, seq) order.
func TestPostDispatch(t *testing.T) {
	e := NewEngine()
	r := &recordingHandler{}
	var seen []int // r's event count when each funcHandler event ran
	payload := &struct{ x int }{7}
	e.Post(5, r, 3, 42, payload)
	e.Post(5, funcHandler{}, 0, 0, func() { seen = append(seen, len(r.kinds)) })
	e.PostAt(2, r, 9, 1, nil)
	e.PostAt(1, funcHandler{}, 0, 0, func() { seen = append(seen, len(r.kinds)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.kinds) != 2 || r.kinds[0] != 9 || r.kinds[1] != 3 {
		t.Fatalf("kinds = %v", r.kinds)
	}
	if r.args[0] != 1 || r.args[1] != 42 || r.objs[0] != nil || r.objs[1] != any(payload) {
		t.Fatalf("args = %v objs = %v", r.args, r.objs)
	}
	if !slices.Equal(seen, []int{0, 2}) {
		t.Fatalf("handlers did not interleave in (tick, seq) order: %v", seen)
	}
}

// TestStepEnforcesMaxTicks is the regression test for the seed
// Run/Step inconsistency: Step used to ignore MaxTicks entirely, so a
// Step-driven drain could run past the livelock safety net forever.
func TestStepEnforcesMaxTicks(t *testing.T) {
	e := NewEngine()
	e.MaxTicks = 100
	var loop func()
	loop = func() { e.Post(10, funcHandler{}, 0, 0, loop) }
	e.Post(10, funcHandler{}, 0, 0, loop)
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
	loop = func() { e.Post(1, funcHandler{}, 0, 0, loop) }
	e.Post(1, funcHandler{}, 0, 0, loop)
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
			e.Post(Tick(i%13), funcHandler{}, 0, 0, func() {
				if i%3 == 0 {
					e.Post(Tick(i%5), nopHandler{}, 0, 0, nil)
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

// chainHandler re-posts itself until every thousandth firing: one
// chain of 1000 events per post from outside.
type chainHandler struct {
	e *Engine
	n int
}

func (c *chainHandler) OnEvent(kind uint8, arg uint64, obj any) {
	c.n++
	if c.n%1000 != 0 {
		c.e.Post(Tick(c.n%7), c, kind, arg, obj)
	}
}

// TestScheduleSteadyStateAllocs is the pool's alloc gate: once the pool
// is warm, Post + fire must not allocate.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	chain := &chainHandler{e: e}
	// Warm the event pool.
	e.Post(1, chain, 0, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Post(1, chain, 1, 99, chain)
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
		e.Post(1, funcHandler{}, 0, 0, step)
	}
	e.Post(0, funcHandler{}, 0, 0, step)
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
				e.Post(1, funcHandler{}, 0, 0, step)
			}
		}
		e.Post(0, funcHandler{}, 0, 0, step)
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

// sink keeps the engines of TestFreshWindowAllocatesOnlyEvents on the
// heap, so the baseline and the measured run allocate them alike.
var sink *Engine

// TestFreshWindowAllocatesOnlyEvents posts several events into every
// bucket of a fresh engine's window and runs them: the only allocations
// beyond NewEngine's own are the events. A bucket is a list threaded
// through its events, so filling one never grows a slice, and neither
// does releasing the fired events to the free list.
func TestFreshWindowAllocatesOnlyEvents(t *testing.T) {
	const perTick = 3
	base := testing.AllocsPerRun(10, func() { sink = NewEngine() })
	allocs := testing.AllocsPerRun(10, func() {
		e := NewEngine()
		for tick := Tick(0); tick < minBuckets; tick++ {
			for i := 0; i < perTick; i++ {
				e.PostAt(tick, nopHandler{}, 0, 0, nil)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		sink = e
	})
	if want := base + minBuckets*perTick; allocs != want {
		t.Fatalf("a fresh window of %d events allocates %g, want %g (NewEngine's %g plus one per event)",
			minBuckets*perTick, allocs, want, base)
	}
}
