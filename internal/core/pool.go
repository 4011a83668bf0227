package core

import "math/bits"

// FIFO is a reusable in-place queue: popping advances a head index, the
// backing array compacts when mostly drained, and popped slots are zeroed
// so references are released immediately. The naive `q = q[1:]` idiom
// abandons the array's prefix and re-grows forever — one amortized
// allocation per element; a FIFO keeps one backing array alive for its
// owner's lifetime, so steady-state queuing performs no allocation at all.
// Every queue on a protocol hot path (the Batcher's staging, merge token
// buffers, worker command streams, pending replies) is one of these.
//
// The zero value is an empty queue ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th queued element (0 = oldest).
func (q *FIFO[T]) At(i int) T { return q.buf[q.head+i] }

// Front returns a pointer to the oldest element, valid until the next
// Push or pop.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head] }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.head == len(q.buf) && q.head > 0 {
		// Empty: restart at the front of the backing array for free.
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 > cap(q.buf) {
		// Mostly-drained while non-empty: compact instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest element.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// PopFront drops the n oldest elements.
func (q *FIFO[T]) PopFront(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// BatchPool is a free list of []Value backing arrays for consensus
// batches. Batches travel inside wire messages and are held by acceptor
// stores and learner reorder buffers, so their arrays cannot live in the
// staging slab; they come from the pool and are recycled when the protocol
// knows every holder is done with them (for M-Ring Paxos: when the
// learner-version garbage collection of §3.3.7 trims the instance, i.e.
// the batch was delivered everywhere and acked).
//
// Arrays are size-classed by power-of-two capacity. Get never returns a
// shorter array than requested; Put accepts any array and files it under
// the largest class it fully covers. The zero value is ready to use.
type BatchPool struct {
	classes [24][][]Value
}

// Get returns a zero-length array with capacity at least n.
func (p *BatchPool) Get(n int) []Value {
	c := poolClass(n)
	if c >= len(p.classes) {
		// Beyond the largest pooled class: plain allocation, exact size.
		return make([]Value, 0, n)
	}
	if list := p.classes[c]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		p.classes[c] = list[:len(list)-1]
		return s
	}
	return make([]Value, 0, 1<<c)
}

// Put recycles an array. The contents are cleared so payload references
// are released even while the array sits in the pool.
func (p *BatchPool) Put(s []Value) {
	if cap(s) < 1 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 // floor log2: the class s can serve
	if c >= len(p.classes) {
		return
	}
	s = s[:0]
	clear(s[:cap(s)])
	p.classes[c] = append(p.classes[c], s)
}

// poolClass returns the smallest class whose arrays hold n values.
func poolClass(n int) int {
	if n < 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
