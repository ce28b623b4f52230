package recycle

import (
	"slices"
	"testing"
)

func TestFreeReusesReleasedRecords(t *testing.T) {
	var f Free[int]
	a := f.Get()
	*a = 7
	f.Put(a)
	if b := f.Get(); b != a || *b != 7 {
		t.Fatalf("Get after Put = %p (%d), want the released %p (7)", b, *b, a)
	}
	if c := f.Get(); c == a || *c != 0 {
		t.Fatalf("Get on an empty list = %p (%d), want a new zero record", c, *c)
	}
}

func TestQueuesFIFOPerKey(t *testing.T) {
	var q Queues[uint64, string]
	if !q.Push(1, "a") || q.Push(1, "b") || !q.Push(2, "x") {
		t.Fatal("Push must report first only for an empty queue")
	}
	if got := q.At(1); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("At(1) = %v", got)
	}
	for _, want := range []string{"a", "b"} {
		if v, ok := q.Pop(1); !ok || v != want {
			t.Fatalf("Pop(1) = %q, %t; want %q", v, ok, want)
		}
	}
	if _, ok := q.Pop(1); ok || q.Len() != 1 {
		t.Fatalf("drained key still queued: Len = %d", q.Len())
	}
	if got := q.Take(2); !slices.Equal(got, []string{"x"}) || q.Len() != 0 {
		t.Fatalf("Take(2) = %v, Len = %d", got, q.Len())
	}
	n := len(q.free)
	if q.Recycle(q.Take(3)); len(q.free) != n {
		t.Fatal("recycling an empty key's queue added an array to the free list")
	}
}

// TestQueuesReuseDrainedArrays: once warm, a push/pop cycle and a
// push/take/recycle cycle allocate nothing.
func TestQueuesReuseDrainedArrays(t *testing.T) {
	var q Queues[uint64, int]
	q.Push(1, 1)
	q.Pop(1)
	if got := testing.AllocsPerRun(100, func() {
		q.Push(1, 1)
		q.Push(1, 2)
		q.Pop(1)
		q.Pop(1)
		q.Push(2, 3)
		q.Recycle(q.Take(2))
	}); got != 0 {
		t.Fatalf("warm queue cycle allocates %.1f/op, want 0", got)
	}
}
