package core

import (
	"sync"
	"sync/atomic"
)

// DecBuf is a shared decision-id buffer. A coordinator accumulates decided
// instance ids (and their partition masks) into one, ships it inside a
// Phase 2A or standalone decision multicast, and stamps it with the
// multicast's receiver count (proto.GroupSizer); every receiver releases
// its reference after consuming the ids, and the last one returns the
// buffer — backing arrays and all — to a pool the coordinator draws from.
// On environments without receiver counts the buffer is never armed and
// simply becomes garbage, which is always safe: recycling is a perf
// property, never a correctness dependency.
type DecBuf struct {
	Insts []int64
	Masks []uint64
	// Vids carries the chosen value id per decided instance, parallel to
	// Insts. Consensus is on value ids, so learners pair a decision with
	// the value it chose (round fencing: a stale coordinator's proposal
	// for the same instance never delivers against a newer decision).
	Vids []ValueID
	refs atomic.Int32
}

// Audited for the duplicated-datagram use-after-recycle fixed in
// internal/paxos: the receiver count assumes each subscriber consumes the
// multicast once, which a duplicating network breaks (one extra Release
// undercounts). lan.Node.GroupSize therefore reports 0 while the fault
// schedule's DupRate is set, so buffers are never armed there.
//
// decBufPool is shared across agents: in a partitioned (PDES) run the last
// release can happen on any logical process's goroutine, so the pool must
// be safe to feed from one goroutine and drain from another.
var decBufPool = sync.Pool{New: func() any { return new(DecBuf) }}

// GetDecBuf returns an empty buffer, recycled when one is available.
func GetDecBuf() *DecBuf { return decBufPool.Get().(*DecBuf) }

// Arm sets how many Release calls return the buffer to the pool. The count
// may overcount actual consumers (a receiver down at delivery time never
// releases), which delays recycling to the garbage collector; it must
// never undercount, which would recycle a buffer still being read.
func (b *DecBuf) Arm(receivers int) { b.refs.Store(int32(receivers)) }

// Release drops one receiver reference; the last reference resets the
// buffer and pools it. Safe on a nil buffer (unarmed sends attach none)
// and from concurrent receivers.
func (b *DecBuf) Release() {
	if b == nil {
		return
	}
	if b.refs.Add(-1) == 0 {
		b.Insts = b.Insts[:0]
		b.Masks = b.Masks[:0]
		b.Vids = b.Vids[:0]
		decBufPool.Put(b)
	}
}
