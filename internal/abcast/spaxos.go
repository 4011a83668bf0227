package abcast

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/paxos"
	"repro/internal/proto"
)

// SPaxos models S-Paxos [32] (§3.4): request dissemination and reception are
// spread over all replicas. A client submits a request to any replica; that
// replica forwards it to all others; every replica acknowledges to all
// others; once f+1 acks are seen the request is stable. The leader orders
// request *ids* with plain Paxos. A replica delivers a request when its id
// is ordered and the request is stable locally.
//
// The all-to-all dissemination (n² messages per request) is what makes
// S-Paxos CPU-intensive and keeps its efficiency near 30% (Table 3.2).
type SPaxos struct {
	// Replicas lists all replica nodes; Replicas[0] is the Paxos leader.
	Replicas []proto.NodeID
	// BatchBytes groups client requests forwarded together (paper: 32 KB).
	BatchBytes int
	// BatchDelay flushes a non-empty forward batch after this delay.
	BatchDelay time.Duration
	// GCJitter, when positive, injects random pauses that model the JVM
	// garbage-collection variability observed in §3.5.4.
	GCJitter time.Duration
	// GCInterval is the shared learner-version log GC period (§3.3.7) of
	// the inner Paxos agent that orders request ids: replicas report
	// applied instances, the leader trims its decision log and acceptor
	// vote logs. Zero resolves to the inner agent's default — GC is ON by
	// default; a negative value disables it (the pre-default seed
	// behavior: the inner logs grow forever).
	GCInterval time.Duration
	// Tail holds the Deliver hook and this replica's delivery counters.
	core.Tail
	// Trace, if set, folds this replica's delivered command sequence into
	// a delivery-equivalence digest (see core.DelivTrace). Pure
	// observation: it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace

	env   proto.Env
	inner *paxos.Agent

	batch core.Batcher

	reqs    map[core.ValueID]core.Value // disseminated request payloads
	acks    map[core.ValueID]uint64     // acked replicas, as a bitmask over Replicas
	stable  map[core.ValueID]bool
	ordered core.FIFO[core.ValueID] // ids ordered by Paxos, pending stability
	seq     int64
}

var _ proto.Handler = (*SPaxos)(nil)

// spForward disseminates a batch of client requests to all replicas.
type spForward struct{ Vals []core.Value }

// spAck acknowledges receipt of the forwarded requests.
type spAck struct{ IDs []core.ValueID }

func (m spForward) Size() int {
	n := headerBytes
	for _, v := range m.Vals {
		n += v.Bytes
	}
	return n
}
func (m spAck) Size() int { return headerBytes + 8*len(m.IDs) }

// Start implements proto.Handler.
func (s *SPaxos) Start(env proto.Env) {
	s.env = env
	if s.BatchBytes == 0 {
		s.BatchBytes = 32 << 10
	}
	if s.BatchDelay == 0 {
		s.BatchDelay = 500 * time.Microsecond
	}
	s.reqs = make(map[core.ValueID]core.Value)
	s.acks = make(map[core.ValueID]uint64)
	s.stable = make(map[core.ValueID]bool)
	s.batch.Init(env, s.BatchDelay, s.flush)
	// Inner Paxos orders ids only: replicas are acceptors and learners.
	s.inner = &paxos.Agent{
		Cfg: paxos.Config{
			Coordinator: s.Replicas[0],
			Acceptors:   s.Replicas,
			Learners:    s.Replicas,
			GCInterval:  s.GCInterval,
		},
	}
	s.inner.Deliver = func(_ int64, v core.Value) { s.onOrdered(core.ValueID(v.ID)) }
	s.inner.Start(env)
}

// Submit accepts a client request at this replica.
func (s *SPaxos) Submit(v core.Value) {
	if s.batch.Add(v, s.BatchBytes) {
		s.flush()
	}
}

// LoseVolatile implements proto.VolatileLoser: a crash that destroys
// volatile state (fault.Lose) discards the staged client requests not
// yet disseminated, and forwards to the inner Paxos agent. The
// dissemination tables (reqs/acks/stable) and the ordered-id queue are
// retained — a replica that lost the payload of an already-ordered id
// has no re-request path, so they are modeled as part of the durable
// request log, at no cost.
func (s *SPaxos) LoseVolatile() {
	s.batch.Reset()
	if s.inner != nil {
		s.inner.LoseVolatile()
	}
}

// flush forwards everything staged as one message, however much it is.
func (s *SPaxos) flush() {
	if s.batch.Len() == 0 {
		return
	}
	fwd := spForward{Vals: s.batch.Cut(nil, false, math.MaxInt).Vals}
	s.onForward(s.env.ID(), fwd)
	for _, r := range s.Replicas {
		if r != s.env.ID() {
			s.env.Send(r, fwd)
		}
	}
}

// Receive implements proto.Handler; non-S-Paxos messages belong to the inner
// Paxos agent ordering ids.
func (s *SPaxos) Receive(from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case spForward:
		s.onForward(from, m)
	case spAck:
		s.onAck(from, m)
	default:
		s.inner.Receive(from, msg)
	}
}

func (s *SPaxos) onForward(from proto.NodeID, m spForward) {
	ids := make([]core.ValueID, 0, len(m.Vals))
	for _, v := range m.Vals {
		if _, ok := s.reqs[v.ID]; !ok {
			s.reqs[v.ID] = v
		}
		ids = append(ids, v.ID)
	}
	ackAndPropose := func() {
		// Acknowledge to all replicas (including self, locally).
		ack := spAck{IDs: ids}
		s.onAck(s.env.ID(), ack)
		for _, r := range s.Replicas {
			if r != s.env.ID() {
				s.env.Send(r, ack)
			}
		}
		// The leader proposes ids for ordering once it has seen the request.
		if s.env.ID() == s.Replicas[0] {
			for _, id := range ids {
				s.inner.Propose(core.Value{ID: id, Bytes: 16})
			}
		}
	}
	if s.GCJitter > 0 && s.env.Rand().Intn(50) == 0 {
		// Occasional JVM garbage-collection pause (§3.5.4) delays this
		// replica's acknowledgements and therefore request stability.
		s.env.Work(time.Duration(s.env.Rand().Int63n(int64(s.GCJitter))), ackAndPropose)
		return
	}
	ackAndPropose()
}

// replicaBit returns from's bit in the ack mask, or 0 for a non-replica.
func (s *SPaxos) replicaBit(from proto.NodeID) uint64 {
	for i, r := range s.Replicas {
		if r == from {
			return 1 << uint(i)
		}
	}
	return 0
}

func (s *SPaxos) onAck(from proto.NodeID, m spAck) {
	f := (len(s.Replicas) - 1) / 2
	bit := s.replicaBit(from)
	for _, id := range m.IDs {
		set := s.acks[id] | bit
		s.acks[id] = set
		if bits.OnesCount64(set) >= f+1 && !s.stable[id] {
			s.stable[id] = true
		}
	}
	s.drain()
}

func (s *SPaxos) onOrdered(id core.ValueID) {
	s.ordered.Push(id)
	s.drain()
}

// drain delivers ordered ids whose payloads are stable, in order.
func (s *SPaxos) drain() {
	for s.ordered.Len() > 0 {
		id := s.ordered.At(0)
		if !s.stable[id] {
			return
		}
		v, ok := s.reqs[id]
		if !ok {
			return
		}
		s.ordered.PopFront(1)
		delete(s.reqs, id)
		delete(s.acks, id)
		delete(s.stable, id)
		s.Tail.Value(s.Trace, s.env, s.seq, v)
		s.seq++
	}
}

// GCIntervalEffective returns the garbage-collection period the inner
// ordering agent resolved at Start: the nonzero default for a zero
// config, 0 when explicitly disabled with a negative interval. Before
// Start nothing is resolved yet and it returns the raw configured value.
func (s *SPaxos) GCIntervalEffective() time.Duration {
	if s.inner == nil {
		return s.GCInterval
	}
	return s.inner.Cfg.GCInterval
}

// LiveLogLen reports how many per-request and per-instance records this
// replica currently retains: the inner Paxos logs plus the dissemination
// tables (request payloads, ack masks, stability flags, the ordered-id
// queue). Soak workloads sample it to prove memory stays flat.
func (s *SPaxos) LiveLogLen() int {
	return s.inner.LiveLogLen() + len(s.reqs) + len(s.acks) + len(s.stable) + s.ordered.Len()
}
