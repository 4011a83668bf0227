// Package abcast implements the comparison atomic broadcast protocols of the
// dissertation's §3.4/§3.5.3: LCR, a Totem-style token ring (the Spread
// stand-in) and S-Paxos. The Libpaxos and PFSB baselines are the multicast
// and unicast configurations of internal/paxos.
//
// These are baselines: they reproduce each protocol's communication pattern
// and cost structure (which is what the paper's comparison measures), not
// the full engineering of the original codebases.
package abcast

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

const headerBytes = 32

// LCR reproduces the LCR protocol of [12]: processes form a ring, every
// process broadcasts, message payloads travel the ring once and are
// delivered after a second (acknowledgement) revolution, giving uniform
// total order under perfect failure detection. Sequencing happens on-ring:
// ring position 0 stamps global sequence numbers as payloads pass, which
// preserves LCR's cost structure (two revolutions per message, all links
// equally loaded, every process broadcasting).
type LCR struct {
	// Ring lists all processes in ring order; all are broadcasters and
	// receivers.
	Ring []proto.NodeID
	// BatchBytes groups small application messages (paper: 32 KB).
	BatchBytes int
	// BatchDelay flushes a non-empty batch after this delay.
	BatchDelay time.Duration
	// DiskSync persists each batch before forwarding it (Fig 3.9 mode).
	// Writes happen sequentially along the ring.
	DiskSync bool
	// Tail holds the Deliver hook and this process's delivery counters.
	core.Tail
	// Trace, if set, folds this process's delivered command sequence into
	// a delivery-equivalence digest (see core.DelivTrace). Pure
	// observation: it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace

	env proto.Env

	batch core.Batcher

	seq       int64 // stamping counter (ring position 0 only)
	localSeq  int64 // per-origin message counter
	next      int64 // next global sequence to deliver
	learned   core.InstLog[lcrEntry]
	unstamped map[lcrKey]core.Batch
}

var _ proto.Handler = (*LCR)(nil)

// lcrData is a payload batch circulating the ring from its origin all the
// way around and back to the origin. Seq is -1 until stamped by position 0;
// (Origin, Local) identifies the message before it is stamped.
type lcrData struct {
	Origin proto.NodeID
	Local  int64
	Seq    int64
	Val    core.Batch
	Hops   int
}

// lcrAck announces that Seq completed its payload revolution; receiving the
// ack makes the message stable (deliverable) — the second revolution. It
// also carries the (Origin, Local) → Seq binding for processes that saw the
// payload before it was stamped.
type lcrAck struct {
	Origin proto.NodeID
	Local  int64
	Seq    int64
	Hops   int
}

func (m lcrData) Size() int { return headerBytes + m.Val.Size() }
func (m lcrAck) Size() int  { return headerBytes }

// lcrEntry merges the payload and stability tables: one ring-indexed record
// per undelivered global sequence.
type lcrEntry struct {
	val    core.Batch
	has    bool
	stable bool
}

// Start implements proto.Handler.
func (l *LCR) Start(env proto.Env) {
	l.env = env
	if l.BatchBytes == 0 {
		l.BatchBytes = 32 << 10
	}
	if l.BatchDelay == 0 {
		l.BatchDelay = 500 * time.Microsecond
	}
	l.unstamped = make(map[lcrKey]core.Batch)
	l.batch.Init(env, l.BatchDelay, l.flush)
}

// lcrKey identifies a message before position 0 stamps it.
type lcrKey struct {
	origin proto.NodeID
	local  int64
}

func (l *LCR) index() int {
	for i, id := range l.Ring {
		if id == l.env.ID() {
			return i
		}
	}
	return -1
}

func (l *LCR) succ() proto.NodeID {
	return l.Ring[(l.index()+1)%len(l.Ring)]
}

// Broadcast submits a value at this process.
func (l *LCR) Broadcast(v core.Value) {
	if l.batch.Add(v, l.BatchBytes) {
		l.flush()
	}
}

func (l *LCR) flush() {
	for l.batch.Len() > 0 {
		l.localSeq++
		m := lcrData{Origin: l.env.ID(), Local: l.localSeq, Seq: -1, Val: l.batch.Cut(nil, false, l.BatchBytes)}
		if l.index() == 0 {
			m.Seq = l.seq
			l.seq++
		}
		l.forward(m)
	}
}

// forward sends m to the successor, after the optional synchronous write.
func (l *LCR) forward(m lcrData) {
	if l.DiskSync {
		l.env.DiskWrite(m.Val.Size()+headerBytes, func() { l.env.Send(l.succ(), m) })
		return
	}
	l.env.Send(l.succ(), m)
}

// Receive implements proto.Handler.
func (l *LCR) Receive(_ proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case lcrData:
		l.onData(m)
	case lcrAck:
		l.onAck(m)
	}
}

func (l *LCR) onData(m lcrData) {
	if m.Origin == l.env.ID() && m.Hops > 0 {
		// The payload completed its revolution: everyone (including us)
		// holds it now; start the acknowledgement revolution.
		l.store(m)
		ack := lcrAck{Origin: m.Origin, Local: m.Local, Seq: m.Seq}
		l.applyAck(ack)
		l.env.Send(l.succ(), ack)
		return
	}
	if l.index() == 0 && m.Seq < 0 {
		m.Seq = l.seq
		l.seq++
	}
	l.store(m)
	m.Hops++
	l.forward(m)
}

func (l *LCR) store(m lcrData) {
	if m.Seq < 0 {
		l.unstamped[lcrKey{m.Origin, m.Local}] = m.Val
		return
	}
	if m.Seq < l.next {
		return
	}
	e, _ := l.learned.Put(m.Seq)
	if !e.has {
		e.val, e.has = m.Val, true
	}
	l.drain()
}

func (l *LCR) onAck(m lcrAck) {
	l.applyAck(m)
	m.Hops++
	if m.Hops < len(l.Ring)-1 {
		l.env.Send(l.succ(), m)
	}
}

// applyAck re-keys a payload seen before stamping and marks Seq stable.
// Acks for already-delivered sequences are ignored (the map-based version
// kept a dead stability record; drain never read it).
func (l *LCR) applyAck(m lcrAck) {
	k := lcrKey{m.Origin, m.Local}
	b, reKey := l.unstamped[k]
	if reKey {
		delete(l.unstamped, k)
	}
	if m.Seq >= l.next {
		e, _ := l.learned.Put(m.Seq)
		if reKey && !e.has {
			e.val, e.has = b, true
		}
		e.stable = true
	}
	l.drain()
}

// drain delivers stable messages in global sequence order.
func (l *LCR) drain() {
	for {
		e, ok := l.learned.Get(l.next)
		if !ok || !e.stable {
			return
		}
		if !e.has {
			return // payload still in flight
		}
		b := e.val
		l.learned.Delete(l.next)
		l.Tail.Batch(l.Trace, l.env, l.next, b, nil)
		l.next++
	}
}
