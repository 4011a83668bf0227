package proto

import (
	"sync"
	"sync/atomic"
)

// Pooled wire messages.
//
// A value-typed message costs one heap allocation every time it is boxed
// into the Message interface — once per Send, and once per hop for
// messages that are forwarded along a ring. Pointer-typed messages box for
// free, travel through any number of forwards without reallocation, and
// can be recycled for the next send once nobody reads them any more.
// Exactly one of two rules says when that is:
//
//   - Single consumer (MsgPool): the message travels by Send, which
//     delivers it once, so exactly one process owns it at a time. Whoever
//     calls Put must be its final consumer (the coordinator draining a
//     proposal, the last hop of a decision's ring revolution, the client
//     reading its reply) and must not touch it afterward.
//   - Receiver count (SharedPool): the message fans out — a multicast —
//     and embeds Refs. The sender arms the count with the number of
//     deliveries before its first send and never reads the message after
//     its last one; every receiver calls Release once, after it has copied
//     out what it keeps, and the last release resets and pools it.
//
// Neither rule is an obligation. A message that is lost, dropped at a full
// socket buffer or addressed to a down process is simply never recycled
// and falls to the garbage collector; so is a shared message whose
// receivers cannot be counted (Arm is skipped or given 0).
//
// Both pools are backed by sync.Pool, so the parallel experiment runner
// can share one pool per message type across concurrently running
// simulations, and a partitioned (PDES) run can release a message on
// another logical process's goroutine than the one that sent it.

// MsgPool is a typed free list for single-consumer pointer messages.
type MsgPool[T any] struct {
	p sync.Pool
}

// Get returns a zeroed *T, recycled when possible.
func (p *MsgPool[T]) Get() *T {
	if v := p.p.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// Put recycles m, zeroing it so payload references are released while it
// sits in the pool. Put(nil) is a no-op.
func (p *MsgPool[T]) Put(m *T) {
	if m == nil {
		return
	}
	var zero T
	*m = zero
	p.p.Put(m)
}

// Refs is the receiver count a shared message embeds.
type Refs struct{ n atomic.Int32 }

// Arm sets how many Release calls return the message to its pool: the sum
// of GroupSizeOf over every group the message is multicast to, or 1 for a
// Send. The count may overcount actual consumers (a receiver that is down
// or drops the datagram never releases), which only leaves the message to
// the garbage collector; it must never undercount, which would recycle a
// message a receiver is still reading. A count of 0 leaves the message
// unarmed: it is never pooled.
func (r *Refs) Arm(receivers int) { r.n.Store(int32(receivers)) }

func (r *Refs) refs() *Refs { return r }

// Shared constrains SharedPool to pointer messages that embed Refs. Reset
// clears a message for reuse, keeping the capacity of its slices so a
// steady message stream reuses the same few arrays.
type Shared[T any] interface {
	*T
	Message
	refs() *Refs
	Reset()
}

// SharedPool is a typed free list for receiver-counted messages.
type SharedPool[T any, P Shared[T]] struct {
	p sync.Pool
	// Poison, if set, takes each message at its final release instead of
	// Reset and the pool. Release-safety tests set it to mark the message,
	// so that a receiver reading it afterwards is caught; it is nil
	// everywhere else.
	Poison func(P)
}

// Get returns a reset, unarmed message, recycled when possible.
func (p *SharedPool[T, P]) Get() P {
	if v := p.p.Get(); v != nil {
		return v.(P)
	}
	return new(T)
}

// Release drops one receiver's reference to m. The last release of an
// armed message resets it and pools it; an unarmed message only counts
// below zero and is left to the garbage collector. Safe from concurrent
// receivers.
func (p *SharedPool[T, P]) Release(m P) {
	if m.refs().n.Add(-1) != 0 {
		return
	}
	if p.Poison != nil {
		p.Poison(m)
		return
	}
	m.Reset()
	p.p.Put(m)
}
