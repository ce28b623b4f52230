// Package bad deliberately violates every hsclint rule; it lives under
// testdata so wildcard patterns (and therefore builds, vet and the CI
// lint sweep) skip it, and only internal/lint's tests load it. Each
// `//want <analyzer> "<substring>"` comment is a golden expectation the
// test harness matches against the diagnostics on that line; lines
// without one must produce none (the false-positive guards).
package bad

import (
	"math/rand"
	"sync"
	"time"

	"hscsim/internal/msg"
	"hscsim/internal/recycle"
)

// classify switches on msg.Type without a default and without covering
// every type → msgswitch.
func classify(t msg.Type) int {
	switch t { //want msgswitch "PrbAck"
	case msg.RdBlk:
		return 1
	case msg.WT:
		return 2
	}
	return 0
}

// sum ranges over a map unannotated → determinism (when the test adds
// this package to the set). The second loop carries the suppression
// marker and an order-insensitive body, so it must NOT be reported.
func sum(m map[int]int) int {
	total := 0
	for _, v := range m { //want determinism "map iteration"
		total += v
	}
	for k := range m { //hsclint:deterministic — max is order-free
		if k > total {
			total = k
		}
	}
	return total
}

// stamp reads the wall clock → determinism (Now, Since). The Duration
// arithmetic and constructors are pure and must NOT be reported.
func stamp() time.Duration {
	start := time.Now()    //want determinism "time.Now"
	d := time.Since(start) //want determinism "time.Since"
	return d + 3*time.Millisecond
}

// draw mixes the banned process-global source (rand.Intn, rand.Seed)
// with the approved seeded-generator idiom; the rand.New/rand.NewSource
// constructors and the *rand.Rand method calls are the false-positive
// guards.
func draw() int {
	rand.Seed(7) //want determinism "rand.Seed"
	r := rand.New(rand.NewSource(42))
	return r.Intn(10) + rand.Intn(10) //want determinism "rand.Intn"
}

// fanOut starts two goroutines → determinism for the unmarked one. The
// marked one (it writes only its own slot, read after the join) is the
// false-positive guard.
func fanOut(out []int) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); out[0] = 1 }() //want determinism "go statement"
	//hsclint:deterministic — writes only out[1], read after wg.Wait
	go func() { defer wg.Done(); out[1] = 2 }()
	wg.Wait()
}

// parkedWork exercises stallwake (when the test adds this package to
// the controller set): a map field, a queue pushed but never popped, a
// table Put but never deleted from, a queue never pushed, and a queue
// read only through At, which wakes nothing. Queues woken by Pop and by
// Take, a table woken by Delete, and a plain slice, which the rule does
// not cover, are the false-positive guards.
type parkedWork struct {
	stalled    map[uint64][]int            //want stallwake "is a map"
	pushOnly   recycle.Queues[uint64, int] //want stallwake "no wake site"
	putOnly    recycle.Table[uint64, int]  //want stallwake "no wake site"
	neverFed   recycle.Queues[uint64, int] //want stallwake "never parks"
	peekedOnly recycle.Queues[uint64, int] //want stallwake "no wake site"
	popped     recycle.Queues[uint64, int]
	taken      recycle.Queues[uint64, int]
	counted    recycle.Table[uint64, int]
	flushes    []int
}

func (w *parkedWork) park(k uint64, v int) {
	w.stalled[k] = append(w.stalled[k], v)
	w.pushOnly.Push(k, v)
	*w.putOnly.Put(k)++
	w.peekedOnly.Push(k, v)
	w.popped.Push(k, v)
	w.taken.Push(k, v)
	*w.counted.Put(k)++
	w.flushes = append(w.flushes, v)
}

func (w *parkedWork) wake(k uint64) int {
	n := len(w.stalled[k]) + len(w.peekedOnly.At(k))
	if v, ok := w.neverFed.Pop(k); ok {
		n += v
	}
	if v, ok := w.popped.Pop(k); ok {
		n += v
	}
	w.taken.Recycle(w.taken.Take(k))
	w.counted.Delete(k)
	w.flushes = w.flushes[1:]
	return n
}

var _ = classify
var _ = sum
var _ = stamp
var _ = draw
var _ = fanOut
var _ = (*parkedWork).park
var _ = (*parkedWork).wake
