// Package bad deliberately violates every hsclint rule; it lives under
// testdata so wildcard patterns (and therefore builds, vet and the CI
// lint sweep) skip it, and only internal/lint's tests load it. Each
// `//want <analyzer> "<substring>"` comment is a golden expectation the
// test harness matches against the diagnostics on that line; lines
// without one must produce none (the false-positive guards).
package bad

import (
	"math/rand"
	"time"

	"hscsim/internal/lint/testdata/gadget"
	"hscsim/internal/msg"
	"hscsim/internal/stats"
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

// widget declares stats fields its constructor never registers →
// statsreg (misses and lat; hits is the false-positive guard).
type widget struct {
	hits   *stats.Counter
	misses *stats.Counter   //want statsreg "widget.misses"
	lat    *stats.Histogram //want statsreg "widget.lat"
}

func newWidget(sc *stats.Scope) *widget {
	return &widget{hits: sc.Counter("hits")}
}

// relay exercises the statsreg companion rules: counter and histogram
// handles copied from another struct (each aliases whatever the source
// field counts), and the same name registered twice on one scope. out
// is the false-positive guard — a correct registration in an ordinary
// assignment.
type relay struct {
	in   *stats.Counter
	out  *stats.Counter
	lat  *stats.Histogram
	dup  *stats.Counter
	dup2 *stats.Counter
}

func newRelay(sc *stats.Scope, w *widget) *relay {
	r := &relay{
		in: w.hits, //want statsreg "must be assigned straight from Scope.Counter"
	}
	r.out = sc.Counter("out")
	r.lat = w.lat //want statsreg "must be assigned straight from Scope.Histogram"
	r.dup = sc.Counter("frames")
	r.dup2 = sc.Counter("frames") //want statsreg "duplicate registration of Counter"
	return r
}

// RemoteGadget aliases another package's struct: its stats fields
// belong to gadget, whose own constructor registers them, so statsreg
// must not report them here (false-positive guard — the public API
// package re-exports internal/engine's Engine exactly this way).
type RemoteGadget = gadget.Gadget

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

// parkedQueues exercises stallwake: a queue-shaped name without the
// annotation, an annotated queue that is filled but never drained, an
// annotated queue that is never filled, a queue type parked through
// its Push method but never popped, and correct park/wake pairs on a
// map and through Push/Pop (the false-positive guards).
type parkedQueues struct {
	stalledReqs map[int]int   //want stallwake "looks like a stall/wait queue"
	noWake      []int         //hsclint:stallqueue //want stallwake "no wake site"
	neverFilled []int         //hsclint:stallqueue //want stallwake "never parks"
	good        map[int][]int //hsclint:stallqueue
	pushOnly    lineQueue     //hsclint:stallqueue //want stallwake "no wake site"
	wrapped     lineQueue     //hsclint:stallqueue
}

// lineQueue is a queue type that wraps its storage.
type lineQueue struct{ m map[int][]int }

func (q *lineQueue) Push(k, v int) { q.m[k] = append(q.m[k], v) }

func (q *lineQueue) Pop(k int) int {
	v := q.m[k][0]
	q.m[k] = q.m[k][1:]
	return v
}

func (pq *parkedQueues) park(k, v int) {
	pq.stalledReqs[k] = v
	pq.noWake = append(pq.noWake, v)
	pq.good[k] = append(pq.good[k], v)
	pq.pushOnly.Push(k, v)
	pq.wrapped.Push(k, v)
}

func (pq *parkedQueues) wake(k int) []int {
	q := pq.good[k]
	delete(pq.good, k)
	return append(q, pq.wrapped.Pop(k))
}

var _ = classify
var _ = newWidget
var _ = newRelay
var _ = sum
var _ = stamp
var _ = draw
var _ = (*parkedQueues).park
var _ = (*parkedQueues).wake
