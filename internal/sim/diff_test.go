// Differential suite: randomized programs of Post/PostAt ops executed
// against the calendar-queue engine and the seed binary heap
// (refEngine, ref_test.go), asserting identical (tick, seq) execution
// order — same-tick FIFO ties, zero-delay posts behind queued events,
// far-future overflow promotion, window growth, and mixed Run/Step
// driving all included.
//
// The op interpreter consumes the program *from inside event handlers*
// (each fired event performs the next ops), so posting happens mid-run
// at arbitrary points, exactly like real components. The committed
// corpus under testdata/fuzz seeds go test -fuzz=FuzzSchedulerEquivalence
// with programs targeting each of those behaviors.
package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// scheduler is what the op interpreter drives: the engine under test or
// the reference heap.
type scheduler interface {
	schedule(d Tick, fn func())
	at(t Tick, fn func())
	run()
	step() bool
	now() Tick
	executed() uint64
	pending() int
}

// funcHandler runs the func carried in obj; kind and arg are ignored.
// It is how a test posts a closure: sim itself has no closure form.
type funcHandler struct{}

func (funcHandler) OnEvent(kind uint8, arg uint64, obj any) { obj.(func())() }

// calendar drives the engine under test through Post and PostAt.
type calendar struct{ e *Engine }

func (c calendar) schedule(d Tick, fn func()) { c.e.Post(d, funcHandler{}, 0, 0, fn) }
func (c calendar) at(t Tick, fn func())       { c.e.PostAt(t, funcHandler{}, 0, 0, fn) }
func (c calendar) run() {
	if err := c.e.Run(); err != nil {
		panic(err)
	}
}
func (c calendar) step() bool {
	ok, err := c.e.Step()
	if err != nil {
		panic(err)
	}
	return ok
}
func (c calendar) now() Tick        { return c.e.Now() }
func (c calendar) executed() uint64 { return c.e.Executed() }
func (c calendar) pending() int     { return c.e.Pending() }

// A program is a byte string decoded 3 bytes per op: c, a, b. c%numOps
// picks the op, and the event the op posts performs the next
// c/numOps%4 ops when it fires: 0 ends its chain, 2 and 3 fan out, so
// the queue depth rises and falls with the program.
const (
	opSchedule = iota // post after a%97 ticks
	opAt              // post at now+a%211 (offset 0 is the current tick)
	opZero            // post after 0 ticks: same-tick FIFO behind queued events
	opFar             // post 300+a*89+b ticks ahead: overflow, promotion, window growth
	numOps
)

type progOp struct {
	kind, fan, a, b byte
}

func decodeProgram(data []byte) []progOp {
	var ops []progOp
	for i := 0; i+2 < len(data) && len(ops) < 400; i += 3 {
		c := data[i]
		ops = append(ops, progOp{c % numOps, c / numOps % 4, data[i+1], data[i+2]})
	}
	return ops
}

// progState interprets a program on one scheduler, consuming ops from
// inside fired events and logging every observable transition.
type progState struct {
	s      scheduler
	ops    []progOp
	pc     int
	nextID int
	log    []string
}

func (p *progState) fire(id int, fan byte) func() {
	return func() {
		p.log = append(p.log, fmt.Sprintf("e%d@%d", id, p.s.now()))
		for i := byte(0); i < fan; i++ {
			p.doOp()
		}
	}
}

// doOp consumes and performs the next op, if any. Every op posts one
// event.
func (p *progState) doOp() {
	if p.pc >= len(p.ops) {
		return
	}
	op := p.ops[p.pc]
	p.pc++
	a, b := Tick(op.a), Tick(op.b)
	fn := p.fire(p.nextID, op.fan)
	p.nextID++
	switch op.kind {
	case opSchedule:
		p.s.schedule(a%97, fn)
	case opAt:
		p.s.at(p.s.now()+a%211, fn)
	case opZero:
		p.s.schedule(0, fn)
	case opFar:
		// Far enough to cross the initial window (256) and, when
		// bursty, to trigger adaptive window growth; ties on (a,b)
		// exercise same-tick FIFO inside promoted buckets.
		p.s.schedule(300+a*89+b, fn)
	}
}

// runProgram executes a decoded program to completion. Two Step bursts
// of up to five events precede each Run to a drained queue, so both
// driving modes are compared, and an empty queue is primed with the
// next op. Every round consumes an op or fires an event, so it ends.
func runProgram(s scheduler, ops []progOp) *progState {
	p := &progState{s: s, ops: ops}
	for round := 0; p.pc < len(p.ops) || s.pending() > 0; round++ {
		if s.pending() == 0 {
			p.doOp()
		}
		if round%3 == 2 {
			s.run()
			p.log = append(p.log, fmt.Sprintf("ran@%d", s.now()))
		} else {
			for i := 0; i < 5 && s.step(); i++ {
			}
			p.log = append(p.log, fmt.Sprintf("stepped@%d", s.now()))
		}
	}
	return p
}

// checkEquivalence runs one program on a new engine, on a reset one and
// on the reference heap, and fails on any observable divergence. The
// reset engine first ran the program, then had its window grown and
// far-future events left queued when it was Reset.
func checkEquivalence(t *testing.T, data []byte) {
	t.Helper()
	ops := decodeProgram(data)
	if len(ops) == 0 {
		return
	}
	ref := runProgram(&refEngine{}, ops)
	sameRun(t, "new engine", runProgram(calendar{NewEngine()}, ops), ref)

	used := NewEngine()
	runProgram(calendar{used}, ops)
	for i := 0; i < 3*minBuckets; i++ {
		used.Post(Tick(500+4*i), nopHandler{}, 0, 0, nil)
	}
	used.Step() // the window jumps to the overflow and grows
	used.Reset()
	sameRun(t, "reset engine", runProgram(calendar{used}, ops), ref)
}

// sameRun fails if got's log or final state differs from ref's.
func sameRun(t *testing.T, name string, got, ref *progState) {
	t.Helper()
	if len(got.log) != len(ref.log) {
		t.Fatalf("%s: %d log entries, reference %d\ngot: %v\nref: %v", name, len(got.log), len(ref.log), got.log, ref.log)
	}
	for i := range ref.log {
		if got.log[i] != ref.log[i] {
			t.Fatalf("%s diverges at entry %d: %q vs reference %q\ngot: %v\nref: %v",
				name, i, got.log[i], ref.log[i], got.log, ref.log)
		}
	}
	if got.s.now() != ref.s.now() || got.s.executed() != ref.s.executed() || got.s.pending() != ref.s.pending() {
		t.Fatalf("%s: final state (now=%d exec=%d pend=%d) != reference (now=%d exec=%d pend=%d)", name,
			got.s.now(), got.s.executed(), got.s.pending(),
			ref.s.now(), ref.s.executed(), ref.s.pending())
	}
}

// FuzzSchedulerEquivalence is the fuzz entry; the committed corpus in
// testdata/fuzz/FuzzSchedulerEquivalence pins programs for same-tick
// ties, overflow promotion, window growth, and Step bursts between
// Runs. CI runs it for 10s per push.
func FuzzSchedulerEquivalence(f *testing.F) {
	// Same-tick FIFO: two posts and a PostAt for tick 7, then
	// zero-delay posts behind them.
	f.Add([]byte{14, 0, 0, 4, 7, 0, 4, 7, 0, 10, 0, 0, 5, 7, 0, 2, 0, 0, 2, 0, 0})
	// PostAt at the current tick interleaved with zero-delay posts.
	f.Add([]byte{13, 0, 0, 1, 211, 0, 6, 0, 0, 9, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0})
	// Far-future overflow promotion, with a tie between events posted
	// at different ticks.
	f.Add([]byte{14, 0, 0, 7, 10, 4, 7, 10, 4, 8, 5, 0, 3, 9, 88, 3, 200, 9, 3, 10, 4})
	// Chains that die inside Step bursts and re-prime.
	f.Add([]byte{4, 9, 0, 0, 3, 0, 10, 0, 0, 4, 5, 0, 5, 2, 0, 2, 0, 0, 0, 40, 0, 4, 1, 0, 2, 0, 0})
	// Mixed everything.
	f.Add([]byte{8, 96, 1, 7, 255, 255, 9, 200, 0, 14, 59, 5, 0, 2, 0, 5, 0, 0, 3, 1, 1, 4, 13, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalence(t, data)
	})
}

// TestSchedulerDifferentialRandom is the always-on (non-fuzz) slice of
// the differential suite: 300 seeded random programs per run.
func TestSchedulerDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //hsclint:deterministic — fixed seed
	for i := 0; i < 300; i++ {
		n := 9 + rng.Intn(120)*3
		data := make([]byte, n)
		rng.Read(data)
		checkEquivalence(t, data)
	}
}
