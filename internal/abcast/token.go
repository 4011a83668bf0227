package abcast

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// TokenRing models a Totem-style privilege-based protocol [31] — the
// architecture behind Spread's daemons. A token circulates the ring; only
// the token holder broadcasts, stamping messages with sequence numbers taken
// from the token. A message is safe-delivered (uniform agreement) once the
// token has completed a further revolution, confirming every daemon received
// it — which is why privilege-based protocols pay high latency (§3.4).
type TokenRing struct {
	// Ring lists the daemons in token order.
	Ring []proto.NodeID
	// Group is the ip-multicast group all daemons subscribe to (Totem uses
	// network broadcast for data).
	Group proto.GroupID
	// BatchBytes groups application messages (Spread tuned: 16 KB).
	BatchBytes int
	// MaxPerToken bounds messages broadcast per token visit.
	MaxPerToken int
	// DaemonCost is extra per-message CPU charged at every daemon,
	// modeling Spread's daemon layer (client-daemon hops, group logic).
	DaemonCost time.Duration
	// Tail holds the Deliver hook and this daemon's delivery counters.
	core.Tail
	// Trace, if set, folds this process's delivered command sequence into
	// a delivery-equivalence digest (see core.DelivTrace). Pure
	// observation: it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace

	env proto.Env

	batch core.Batcher

	learned core.Reorder
	next    int64
	safe    int64 // sequences < safe are stable
}

var _ proto.Handler = (*TokenRing)(nil)

// tokenMsg is the circulating privilege token. Seq is the next sequence
// number to stamp; AllRecv is the highest sequence every daemon had received
// when the token last completed a revolution (the safe horizon).
type tokenMsg struct {
	Seq     int64
	MinRecv int64 // min over daemons this revolution
	AllRecv int64 // safe horizon from the previous revolution
	Round   int
}

// tokenData is a stamped broadcast batch.
type tokenData struct {
	Seq int64
	Val core.Batch
}

// tokenRetransmitReq asks the predecessor for lost payloads (Totem recovers
// losses through token-driven retransmission).
type tokenRetransmitReq struct{ Seqs []int64 }

func (m tokenMsg) Size() int           { return headerBytes }
func (m tokenData) Size() int          { return headerBytes + m.Val.Size() }
func (m tokenRetransmitReq) Size() int { return headerBytes + 8*len(m.Seqs) }

// Start implements proto.Handler: ring position 0 injects the token.
func (t *TokenRing) Start(env proto.Env) {
	t.env = env
	if t.BatchBytes == 0 {
		t.BatchBytes = 16 << 10
	}
	if t.MaxPerToken == 0 {
		t.MaxPerToken = 4
	}
	if t.index() == 0 {
		env.After(time.Millisecond, func() {
			t.onToken(tokenMsg{MinRecv: 1<<62 - 1})
		})
	}
}

func (t *TokenRing) index() int {
	for i, id := range t.Ring {
		if id == t.env.ID() {
			return i
		}
	}
	return -1
}

func (t *TokenRing) succ() proto.NodeID {
	return t.Ring[(t.index()+1)%len(t.Ring)]
}

// Broadcast submits a value at this daemon; it is sent at the next token
// visit.
func (t *TokenRing) Broadcast(v core.Value) { t.batch.Stage(v) }

// Receive implements proto.Handler.
func (t *TokenRing) Receive(from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case tokenMsg:
		t.onToken(m)
	case tokenData:
		t.onData(m)
	case tokenRetransmitReq:
		for _, seq := range m.Seqs {
			if b, ok := t.learned.Get(seq); ok {
				t.env.Send(from, tokenData{Seq: seq, Val: *b})
			}
		}
	}
}

// received returns the highest sequence below which this daemon has all
// payloads.
func (t *TokenRing) received() int64 {
	r := t.next
	for t.learned.Has(r) {
		r++
	}
	return r
}

func (t *TokenRing) onToken(m tokenMsg) {
	work := t.DaemonCost
	// Broadcast pending batches while holding the token.
	sent := 0
	for t.batch.Len() > 0 && sent < t.MaxPerToken {
		d := tokenData{Seq: m.Seq, Val: t.batch.Cut(nil, false, t.BatchBytes)}
		m.Seq++
		sent++
		t.onData(d) // local copy
		t.env.Multicast(t.Group, d)
	}
	if r := t.received(); r < m.MinRecv {
		m.MinRecv = r
	}
	// Token-driven loss recovery: ask the predecessor for gaps.
	if r := t.received(); r < m.Seq {
		var miss []int64
		for s := r; s < m.Seq && len(miss) < 16; s++ {
			if !t.learned.Has(s) {
				miss = append(miss, s)
			}
		}
		if len(miss) > 0 {
			pred := t.Ring[(t.index()+len(t.Ring)-1)%len(t.Ring)]
			t.env.Send(pred, tokenRetransmitReq{Seqs: miss})
		}
	}
	fwd := m
	if t.index() == len(t.Ring)-1 {
		// Revolution completes at the last daemon: everything every daemon
		// had received becomes safe next round.
		fwd.AllRecv = m.MinRecv
		fwd.MinRecv = 1<<62 - 1
		fwd.Round = m.Round + 1
	}
	if fwd.AllRecv > t.safe {
		t.safe = fwd.AllRecv
		t.drain()
	}
	send := func() { t.env.Send(t.succ(), fwd) }
	if work > 0 {
		t.env.Work(work, send)
	} else {
		send()
	}
}

func (t *TokenRing) onData(m tokenData) {
	if t.learned.Hold(t.next, m.Seq, m.Val) {
		t.drain()
	}
}

func (t *TokenRing) drain() {
	for t.next < t.safe {
		e, ok := t.learned.Get(t.next)
		if !ok {
			return
		}
		b := *e
		// Keep a bounded history for token-driven retransmission.
		t.learned.Delete(t.next - 1024)
		t.Tail.Batch(t.Trace, t.env, t.next, b, nil)
		t.next++
	}
}
