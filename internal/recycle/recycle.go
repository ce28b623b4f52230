// Package recycle holds the storage that lets the coherence
// controllers serve a steady-state request without allocating: Free
// reuses per-request records, Table indexes per-line in-flight state
// without Go maps, and Queues keeps per-key FIFOs whose backing arrays
// are reused once a key's queue drains.
package recycle

// Free is a free list of *T records. The zero value is empty and ready
// to use.
type Free[T any] struct {
	free []*T
}

// Get returns a released record, or a new zero one when none is free.
// A released record keeps what it held when it was Put, so the caller
// resets the fields it relies on.
func (f *Free[T]) Get() *T {
	if n := len(f.free); n > 0 {
		p := f.free[n-1]
		f.free = f.free[:n-1]
		return p
	}
	return new(T)
}

// Put releases p for reuse by a later Get. Nothing else may still
// refer to p.
func (f *Free[T]) Put(p *T) { f.free = append(f.free, p) }

// Queues maps keys to FIFO queues whose backing arrays are reused once
// a key's queue drains. The zero value is empty and ready to use.
type Queues[K ~uint64, T any] struct {
	idx  Table[K, []T] // only non-empty queues have an entry
	free [][]T
}

// Push appends v to k's queue and reports whether the queue was empty.
func (q *Queues[K, T]) Push(k K, v T) (first bool) {
	s := q.idx.Put(k)
	if first = len(*s) == 0; first {
		if n := len(q.free); n > 0 {
			*s = q.free[n-1]
			q.free = q.free[:n-1]
		}
	}
	*s = append(*s, v)
	return first
}

// Pop removes and returns k's oldest entry; ok is false when k's queue
// is empty.
func (q *Queues[K, T]) Pop(k K) (v T, ok bool) {
	p := q.idx.Find(k)
	if p == nil {
		return v, false
	}
	s := *p
	v = s[0]
	if len(s) == 1 {
		q.idx.Delete(k)
		q.Recycle(s)
	} else {
		*p = s[:copy(s, s[1:])]
		var zero T
		s[len(s)-1] = zero
	}
	return v, true
}

// Take removes k's whole queue, oldest first (nil when it is empty).
// The caller hands it to Recycle once done with it.
func (q *Queues[K, T]) Take(k K) []T {
	p := q.idx.Find(k)
	if p == nil {
		return nil
	}
	s := *p
	q.idx.Delete(k)
	return s
}

// Recycle makes a drained queue's backing array reusable. It ignores
// the nil that Take returns for an empty queue.
func (q *Queues[K, T]) Recycle(s []T) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	q.free = append(q.free, s[:0])
}

// At returns k's queue, oldest first, leaving it in place.
func (q *Queues[K, T]) At(k K) []T {
	if p := q.idx.Find(k); p != nil {
		return *p
	}
	return nil
}

// Len reports how many keys have a non-empty queue.
func (q *Queues[K, T]) Len() int { return q.idx.Len() }
