package core

import (
	"time"

	"repro/internal/proto"
)

// Batcher is the staging step in front of every ordering protocol: small
// submitted values wait here until they fill a packet or a flush delay
// passes, then leave as one Batch. Protocols embed one by value; what
// differs between them — the packet size, whether batch arrays are pooled,
// partition-aware grouping — is an argument of the call.
//
// M-Ring, basic Paxos, S-Paxos and LCR stage every value with Add, which
// keeps a flush timer in flight whenever something is staged below the
// packet size: their figures pin that schedule. The U-Ring coordinator
// calls Add only for values that arrive behind an open instance; one that
// finds it idle is staged with Stage and cut at once, because a decision
// coming round the ring — not a timer — is what clocks its next batch.
//
// Staging reuses one backing array and zeroes the slots of cut or dropped
// values, so steady-state batching allocates nothing beyond the batch
// arrays and keeps no payload reachable once it left.
type Batcher struct {
	slab  FIFO[Value]
	bytes int
	// armed means a flush timer is in flight. Substrate timers outlive
	// crashes, so nothing but the timer itself clears it.
	armed bool
	env   proto.Env
	delay time.Duration
	fire  func() // pre-bound timer callback: scheduling it allocates nothing
}

// Init binds the flush timer of Add: flush runs at most delay after a
// value was staged into a batcher that had no flush pending.
func (b *Batcher) Init(env proto.Env, delay time.Duration, flush func()) {
	b.env, b.delay = env, delay
	b.fire = func() { b.armed = false; flush() }
}

// Len returns the number of staged values.
func (b *Batcher) Len() int { return b.slab.Len() }

// Stage queues v without a flush timer, for owners whose cut is driven by
// something else (the token ring cuts at token visits, the U-Ring
// coordinator cuts an idle arrival at once).
func (b *Batcher) Stage(v Value) {
	b.slab.Push(v)
	b.bytes += v.Bytes
}

// Add stages v and reports whether the staged bytes reached maxBytes, in
// which case the caller flushes now. Below the threshold it makes sure
// one flush timer is in flight.
func (b *Batcher) Add(v Value, maxBytes int) bool {
	b.Stage(v)
	if b.bytes >= maxBytes {
		return true
	}
	if !b.armed {
		b.armed = true
		proto.AfterFree(b.env, b.delay, b.fire)
	}
	return false
}

// Cut moves the next batch out of staging: the oldest values up to and
// including the first that brings the batch to maxBytes — at least one —
// in an array drawn from pool when pooled, else freshly allocated at
// exact size.
func (b *Batcher) Cut(pool *BatchPool, pooled bool, maxBytes int) Batch {
	live := b.slab.buf[b.slab.head:]
	n, bytes := 0, 0
	for n < len(live) && bytes < maxBytes {
		bytes += live[n].Bytes
		n++
	}
	vals := append(batchArray(pool, pooled, n), live[:n]...)
	b.slab.PopFront(n)
	b.bytes -= bytes
	return Batch{Vals: vals}
}

// CutMasked is Cut for partitioned staging (Chapter 4): the batch takes
// only values whose PartMask equals the oldest staged value's, so it
// travels to the groups it concerns and no others, and that mask is
// returned with it. What stays behind keeps its order.
func (b *Batcher) CutMasked(pool *BatchPool, pooled bool, maxBytes int) (Batch, uint64) {
	q := &b.slab
	live := q.buf[q.head:]
	mask := live[0].PartMask
	// Count first so the array is sized by the batch, not by the backlog.
	n, bytes := 0, 0
	for i := range live {
		if bytes < maxBytes && live[i].PartMask == mask {
			n++
			bytes += live[i].Bytes
		}
	}
	vals := batchArray(pool, pooled, n)
	bytes = 0
	rest := q.buf[:0]
	for _, v := range live {
		if bytes < maxBytes && v.PartMask == mask {
			vals = append(vals, v)
			bytes += v.Bytes
			continue
		}
		rest = append(rest, v)
	}
	clear(q.buf[len(rest):])
	q.buf, q.head = rest, 0
	b.bytes -= bytes
	return Batch{Vals: vals}, mask
}

// Reset drops everything staged: a crash lost it, or a coordinator that
// stood down can no longer propose it.
func (b *Batcher) Reset() {
	b.slab.PopFront(b.slab.Len())
	b.bytes = 0
}

func batchArray(pool *BatchPool, pooled bool, n int) []Value {
	if pooled {
		return pool.Get(n)
	}
	return make([]Value, 0, n)
}
