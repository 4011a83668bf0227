// Package paxos implements the basic (multi-instance, optimized) Paxos
// protocol of the dissertation's Chapter 3, Algorithm 1 and Figure 3.1.
//
// The coordinator pre-executes Phase 1 for all instances, pipelines a
// window of simultaneously open instances, and batches small application
// values into fixed-size packets, as the dissertation's implementations do.
// Two wire configurations are supported:
//
//   - Multicast: Phase 2A and Decision messages use network-level
//     ip-multicast while Phase 2B messages are unicast datagrams back to the
//     coordinator. This is the "Libpaxos" architecture evaluated in §3.5.3:
//     dissemination is cheap but the coordinator receives one 2B per
//     acceptor per instance and becomes CPU-bound.
//   - Unicast: every message is a direct reliable channel, the "PFSB"
//     architecture of [10].
//
// The package also serves as the consensus substrate reused by the SMR and
// baseline packages; Ring Paxos has its own package (internal/ringpaxos).
// Staging, the delivery tail, the trim step and the instance logs are the
// parts of internal/core every protocol is built from.
package paxos

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// Config describes one Paxos deployment.
type Config struct {
	// Coordinator is the node running the coordinator role (it is also an
	// acceptor if listed in Acceptors).
	Coordinator proto.NodeID
	// Acceptors is the acceptor set; a majority quorum must stay alive.
	Acceptors []proto.NodeID
	// Learners receive Decision messages.
	Learners []proto.NodeID
	// Multicast selects the ip-multicast wire configuration; Group is the
	// multicast group to which acceptors and learners must be subscribed.
	Multicast bool
	Group     proto.GroupID
	// Window is the maximum number of simultaneously open instances.
	Window int
	// BatchBytes closes a batch once this many payload bytes accumulate.
	BatchBytes int
	// BatchDelay closes a non-empty batch after this delay even if not full.
	BatchDelay time.Duration
	// Retry is the retransmission timeout for unacknowledged Phase 2A and
	// for learner gap recovery.
	Retry time.Duration
	// DiskSync makes acceptors persist their vote to stable storage before
	// answering Phase 2A (Recoverable mode, §3.5.5).
	DiskSync bool
	// GCInterval is the shared learner-version garbage collection period
	// (§3.3.7, extracted from M-Ring Paxos): every GCInterval each learner
	// sends a proto.VersionReport to the coordinator; once every learner
	// has reported, the coordinator trims its decision log up to the
	// minimum reported instance and broadcasts a proto.TrimFloor so
	// acceptors trim their vote logs too. Zero resolves to
	// DefaultGCInterval — GC is ON by default, so library consumers get
	// bounded memory without opting in. A negative value disables GC (the
	// pre-default seed behavior: both logs grow by one entry per
	// consensus instance forever).
	GCInterval time.Duration
	// RecycleBatches lets the coordinator draw batch backing arrays from
	// its free list and reclaim them when garbage collection trims the
	// instance (plus one quarantine round). Requires GCInterval > 0 and
	// learners that consume delivered batches synchronously.
	RecycleBatches bool
}

// DefaultGCInterval is the learner-version reporting period a zero
// GCInterval resolves to; negative disables GC.
const DefaultGCInterval = 50 * time.Millisecond

func (c *Config) defaults() {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 4 << 10
	}
	if c.BatchDelay == 0 {
		c.BatchDelay = 500 * time.Microsecond
	}
	if c.Retry == 0 {
		c.Retry = 20 * time.Millisecond
	}
	if c.GCInterval == 0 {
		c.GCInterval = DefaultGCInterval
	}
	if c.GCInterval < 0 {
		c.GCInterval = 0 // explicit off: no version timer is ever armed
	}
}

// Quorum returns the majority quorum size for the acceptor set.
func (c Config) Quorum() int { return len(c.Acceptors)/2 + 1 }

const headerBytes = 32 // modeled fixed header size of every protocol message

// Wire messages.
type (
	// MsgPropose carries a client value to the coordinator.
	MsgPropose struct{ V core.Value }
	// msgPhase1A opens round Rnd on all instances.
	msgPhase1A struct{ Rnd int64 }
	// msgPhase1B is an acceptor's promise, carrying its votes for all
	// undecided instances. Floor is the acceptor's garbage-collection trim
	// floor: a new coordinator must not resurrect votes below the highest
	// floor its quorum reports, because acceptors that already trimmed an
	// instance drop its Phase 2A forever (the below-floor ghost guard), so
	// a resurrected instance could retry without ever reaching quorum.
	msgPhase1B struct {
		Rnd   int64
		Votes map[int64]vote
		Floor int64
	}
	// msgPhase2A proposes Val in instance Inst at round Rnd. It is sent
	// as a pointer: the unicast configuration sends one message to every
	// acceptor, and a pointer boxes once instead of once per receiver.
	msgPhase2A struct {
		Inst int64
		Rnd  int64
		Val  core.Batch
	}
	// msgPhase2B is an acceptor's vote. On the TCP path (unicast wiring)
	// it is pooled and recycled by the coordinator that consumes it; on
	// the datagram path (multicast wiring) it is allocated fresh and never
	// recycled, because the network may deliver one datagram twice.
	msgPhase2B struct {
		Inst int64
		Rnd  int64
	}
	// msgDecision announces the decided batch of Inst. Shared marks copies
	// with more than one receiver (multicast, or unicast fan-out to the
	// learner set), which must not be recycled by any one of them; only
	// single-receiver gap-recovery retransmissions are pooled.
	msgDecision struct {
		Inst   int64
		Val    core.Batch
		Shared bool
	}
	// msgLearnReq asks the coordinator to retransmit decisions from
	// instance From on (learner gap recovery).
	msgLearnReq struct{ From int64 }
)

// Size implements proto.Message.
func (m MsgPropose) Size() int { return headerBytes + m.V.Bytes }
func (m msgPhase1A) Size() int { return headerBytes }
func (m msgPhase1B) Size() int {
	n := headerBytes
	for _, v := range m.Votes {
		n += headerBytes + v.val.Size()
	}
	return n
}
func (m msgPhase2A) Size() int  { return headerBytes + m.Val.Size() }
func (m msgPhase2B) Size() int  { return headerBytes }
func (m msgDecision) Size() int { return headerBytes + m.Val.Size() }
func (m msgLearnReq) Size() int { return headerBytes }

// A pooled message has exactly one consumer, which Puts it; that only holds
// on TCP, where a message arrives once. A datagram the fault layer
// duplicates reaches its consumer twice as the SAME pointer, so a pooled
// datagram would be Put twice and read after it was zeroed or re-issued.
//
//   - phase2BPool: TCP path only. The multicast wiring sends 2Bs over
//     SendUDP, so there sendPhase2B allocates and onPhase2B leaves the
//     message to the GC (TestMulticastDuplicated2BNotRecycled).
//   - decisionPool: safe. Multicast and fan-out decisions are marked Shared
//     and never Put; the only recycled decisions are the single-receiver
//     gap-recovery retransmissions of onLearnReq, which travel over TCP.
//   - msgProposePool: safe, proposals travel over TCP only.
var (
	msgProposePool proto.MsgPool[MsgPropose]
	phase2BPool    proto.MsgPool[msgPhase2B]
	decisionPool   proto.MsgPool[msgDecision]
)

type vote struct {
	rnd int64
	val core.Batch
}

// coordInst is the coordinator's bookkeeping for one open instance. The 2B
// quorum is a bitmask over Cfg.Acceptors; retransmission timers are
// fire-and-forget and validate the instance when they fire.
type coordInst struct {
	rnd     int64
	val     core.Batch
	votes   uint64
	decided bool
	pooled  bool // val.Vals came from this agent's pool; recycle on GC
}

// logRec is one decided instance retained by the coordinator for learner
// gap recovery, until garbage collection proves every learner applied it.
type logRec struct {
	val    core.Batch
	pooled bool
}

// Agent is one Paxos process. Its roles follow from the Config: it acts as
// coordinator if its node id equals Coordinator, as acceptor if listed in
// Acceptors, and as learner if listed in Learners. Application values are
// delivered, in instance order, through the Deliver callback.
type Agent struct {
	Cfg Config
	// Tail holds the Deliver hook and this learner's delivery counters.
	core.Tail
	// Trace, if set, folds this learner's delivered command sequence into
	// a delivery-equivalence digest (see core.DelivTrace). Pure
	// observation: it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace
	// OnDecide, if set, is invoked on the coordinator when an instance
	// decides (used by harnesses).
	OnDecide func(inst int64)

	env proto.Env

	// coordinator state
	isCoord    bool
	phase1Done bool
	crnd       int64
	batch      core.Batcher
	next       int64
	open       core.InstLog[coordInst]
	log        core.InstLog[logRec] // decided batches, for retransmission
	promises   map[proto.NodeID]msgPhase1B

	// gc is the garbage-collection state (§3.3.7): the coordinator tracks
	// learner versions and owns the trim floor and the batch pool;
	// acceptors follow the TrimFloor messages it broadcasts.
	gc core.Trim

	// acceptor state
	rnd      int64
	votes    core.InstLog[vote]
	accFloor int64 // instances below it are trimmed from the vote log

	// learner state
	learned     core.Reorder
	nextDeliver int64
	// coordHint is where learner-side requests (gap recovery, version
	// reports) go: the static Cfg.Coordinator until a decision arrives
	// from somewhere else. Only the active coordinator sends decisions, so
	// the sender doubles as a liveness hint — after a failover, reports
	// follow the new coordinator instead of chasing the dead one (which
	// would quietly disable garbage collection forever).
	coordHint proto.NodeID

	retryFn    func(int64)
	gapTimerFn func()
	versionFn  func()
}

var _ proto.Handler = (*Agent)(nil)

// Start implements proto.Handler.
func (a *Agent) Start(env proto.Env) {
	a.env = env
	a.Cfg.defaults()
	a.promises = make(map[proto.NodeID]msgPhase1B)
	a.batch.Init(env, a.Cfg.BatchDelay, a.flush)
	a.retryFn = a.retryInstance
	a.gapTimerFn = a.gapTick
	a.versionFn = a.versionTick
	a.coordHint = a.Cfg.Coordinator
	if env.ID() == a.Cfg.Coordinator {
		a.BecomeCoordinator(1)
	}
	if a.isLearner() {
		a.armGapTimer()
		if a.Cfg.GCInterval > 0 {
			proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
		}
	}
}

func (a *Agent) isAcceptor() bool {
	for _, id := range a.Cfg.Acceptors {
		if id == a.env.ID() {
			return true
		}
	}
	return false
}

func (a *Agent) isLearner() bool {
	for _, id := range a.Cfg.Learners {
		if id == a.env.ID() {
			return true
		}
	}
	return false
}

// acceptorBit returns the quorum-bitmask bit of acceptor id, or 0.
func (a *Agent) acceptorBit(id proto.NodeID) uint64 {
	for i, acc := range a.Cfg.Acceptors {
		if acc == id {
			return 1 << uint(i)
		}
	}
	return 0
}

// BecomeCoordinator makes this agent start Phase 1 with a round number
// unique to it and at least minRound. It is called automatically on the
// configured coordinator and manually by failover logic and tests.
func (a *Agent) BecomeCoordinator(minRound int64) {
	a.isCoord = true
	a.phase1Done = false
	a.promises = make(map[proto.NodeID]msgPhase1B)
	// Rounds are made globally unique by embedding the node id in the low
	// bits.
	r := (minRound << 10) | int64(a.env.ID())
	if r <= a.crnd {
		r = (((a.crnd >> 10) + 1) << 10) | int64(a.env.ID())
	}
	a.crnd = r
	m := msgPhase1A{Rnd: a.crnd}
	for _, id := range a.Cfg.Acceptors {
		a.env.Send(id, m)
	}
	a.env.After(a.Cfg.Retry, func() {
		if a.isCoord && !a.phase1Done {
			a.BecomeCoordinator(a.crnd >> 10)
		}
	})
}

// Propose submits a value from this node. On the coordinator it enqueues
// directly; on any other node it forwards to the coordinator.
func (a *Agent) Propose(v core.Value) {
	if a.isCoord {
		a.enqueue(v)
		return
	}
	m := msgProposePool.Get()
	m.V = v
	a.env.Send(a.Cfg.Coordinator, m)
}

// Receive implements proto.Handler.
func (a *Agent) Receive(from proto.NodeID, m proto.Message) {
	switch msg := m.(type) {
	case *MsgPropose:
		if a.isCoord {
			a.enqueue(msg.V)
		}
		msgProposePool.Put(msg)
	case msgPhase1A:
		a.onPhase1A(from, msg)
	case msgPhase1B:
		a.onPhase1B(from, msg)
	case *msgPhase2A:
		a.onPhase2A(from, msg)
	case *msgPhase2B:
		a.onPhase2B(from, msg)
	case *msgDecision:
		a.coordHint = from
		a.onDecision(msg)
		if !msg.Shared {
			decisionPool.Put(msg)
		}
	case msgLearnReq:
		a.onLearnReq(from, msg)
	case *proto.VersionReport:
		a.onVersionReport(*msg)
		proto.VersionReportPool.Put(msg)
	case proto.TrimFloor:
		a.onTrimFloor(msg)
	}
}

// LoseVolatile implements proto.VolatileLoser: a crash that destroys
// volatile state (fault.Lose) discards the staged client values awaiting
// proposal. Promises, votes, the decision log and the delivered frontier
// are retained — the protocol treats them as recoverable from stable
// storage at no cost (the Durability knob and write-ahead log of
// internal/ringpaxos do not reach this agent yet).
func (a *Agent) LoseVolatile() { a.batch.Reset() }

// --- coordinator ---

func (a *Agent) enqueue(v core.Value) {
	if a.batch.Add(v, a.Cfg.BatchBytes) {
		a.flush()
	}
}

// flush opens new instances for pending batches while the window allows.
func (a *Agent) flush() {
	if !a.isCoord || !a.phase1Done {
		return
	}
	for a.batch.Len() > 0 && a.open.Len() < a.Cfg.Window {
		pooled := a.Cfg.RecycleBatches && a.Cfg.GCInterval > 0
		a.startInstance(a.batch.Cut(&a.gc.Pool, pooled, a.Cfg.BatchBytes), pooled)
	}
}

func (a *Agent) startInstance(b core.Batch, pooled bool) {
	inst := a.next
	a.next++
	ci, _ := a.open.Put(inst)
	*ci = coordInst{rnd: a.crnd, val: b, pooled: pooled}
	a.sendPhase2A(inst, ci)
}

func (a *Agent) sendPhase2A(inst int64, ci *coordInst) {
	m := &msgPhase2A{Inst: inst, Rnd: ci.rnd, Val: ci.val}
	if a.Cfg.Multicast {
		// Acceptors and learners are subscribed; learners buffer the value
		// until the decision arrives.
		a.env.Multicast(a.Cfg.Group, m)
	} else {
		for _, id := range a.Cfg.Acceptors {
			a.env.Send(id, m)
		}
	}
	proto.AfterFreeArg(a.env, a.Cfg.Retry, a.retryFn, inst)
}

// retryInstance re-sends an instance's 2A if it is still undecided.
func (a *Agent) retryInstance(inst int64) {
	if ci, ok := a.open.Get(inst); ok && !ci.decided {
		a.sendPhase2A(inst, ci)
	}
}

func (a *Agent) onPhase1B(from proto.NodeID, m msgPhase1B) {
	if !a.isCoord || m.Rnd != a.crnd || a.phase1Done {
		return
	}
	a.promises[from] = m
	if len(a.promises) < a.Cfg.Quorum() {
		return
	}
	a.phase1Done = true
	// Adopt the highest-round vote per undecided instance; re-propose it.
	// Votes below the quorum's highest trim floor (or our own) belong to
	// instances every learner has applied; acceptors that trimmed them
	// drop below-floor 2As without replying, so re-opening such an
	// instance could spin in retryInstance forever, pinning a window slot.
	floor := a.accFloor
	for _, p := range a.promises {
		if p.Floor > floor {
			floor = p.Floor
		}
	}
	a.gc.SetFloor(floor)
	if floor > a.next {
		// Trimmed instances leave no votes behind: without this, a
		// quiescent failover (no surviving votes at or past the floor)
		// would restart numbering below the floor, where acceptors drop
		// every 2A — fresh instances could never decide.
		a.next = floor
	}
	adopt := make(map[int64]vote)
	for _, p := range a.promises {
		for inst, v := range p.Votes {
			if inst < floor || a.log.Has(inst) {
				continue
			}
			if cur, ok := adopt[inst]; !ok || v.rnd > cur.rnd {
				adopt[inst] = v
			}
		}
	}
	insts := make([]int64, 0, len(adopt))
	for inst := range adopt {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	for _, inst := range insts {
		if inst >= a.next {
			a.next = inst + 1
		}
		ci, _ := a.open.Put(inst)
		*ci = coordInst{rnd: a.crnd, val: adopt[inst].val}
		a.sendPhase2A(inst, ci)
	}
	a.flush()
}

func (a *Agent) onPhase2B(from proto.NodeID, m *msgPhase2B) {
	inst, rnd := m.Inst, m.Rnd
	if !a.Cfg.Multicast {
		phase2BPool.Put(m)
	}
	if !a.isCoord {
		return
	}
	ci, ok := a.open.Get(inst)
	if !ok || ci.decided || rnd != ci.rnd {
		return
	}
	bit := a.acceptorBit(from)
	if ci.votes&bit != 0 {
		return
	}
	ci.votes |= bit
	if bits.OnesCount64(ci.votes) < a.Cfg.Quorum() {
		return
	}
	ci.decided = true
	val := ci.val
	le, _ := a.log.Put(inst)
	*le = logRec{val: val, pooled: ci.pooled}
	a.open.Delete(inst)
	dec := decisionPool.Get()
	dec.Inst, dec.Val, dec.Shared = inst, val, true
	if a.Cfg.Multicast {
		a.env.Multicast(a.Cfg.Group, dec)
	} else {
		for _, id := range a.Cfg.Learners {
			if id == a.env.ID() {
				continue
			}
			a.env.Send(id, dec)
		}
	}
	if a.isLearner() {
		a.onDecision(dec)
	}
	if a.OnDecide != nil {
		a.OnDecide(inst)
	}
	a.flush()
}

func (a *Agent) onLearnReq(from proto.NodeID, m msgLearnReq) {
	if !a.isCoord {
		return
	}
	// Retransmit up to a handful of decisions per request to bound load.
	// Trimmed instances are never requested: the trim floor only advances
	// past an instance after every learner has reported it applied.
	for inst, sent := m.From, 0; sent < 64; inst, sent = inst+1, sent+1 {
		b, ok := a.log.Get(inst)
		if !ok {
			break
		}
		dec := decisionPool.Get()
		dec.Inst, dec.Val = inst, b.val
		a.env.Send(from, dec)
	}
}

// --- acceptor ---

func (a *Agent) onPhase1A(from proto.NodeID, m msgPhase1A) {
	if !a.isAcceptor() {
		return
	}
	if m.Rnd <= a.rnd {
		return
	}
	a.rnd = m.Rnd
	reply := msgPhase1B{Rnd: a.rnd, Votes: make(map[int64]vote, a.votes.Len()), Floor: a.accFloor}
	a.votes.Range(func(inst int64, v *vote) bool {
		reply.Votes[inst] = *v
		return true
	})
	a.env.Send(from, reply)
}

func (a *Agent) onPhase2A(from proto.NodeID, m *msgPhase2A) {
	if !a.isAcceptor() {
		return
	}
	if m.Rnd < a.rnd {
		return
	}
	if m.Inst < a.accFloor {
		// Straggler for a trimmed (globally applied) instance: re-creating
		// its vote below the trim floor would leave a permanent ghost in
		// the instance ring, since TrimFloor never looks below it again.
		return
	}
	a.rnd = m.Rnd
	v, _ := a.votes.Put(m.Inst)
	*v = vote{rnd: m.Rnd, val: m.Val}
	if a.Cfg.DiskSync {
		inst, rnd := m.Inst, m.Rnd
		a.env.DiskWrite(m.Val.Size()+headerBytes, func() { a.sendPhase2B(from, inst, rnd) })
	} else {
		a.sendPhase2B(from, m.Inst, m.Rnd)
	}
}

func (a *Agent) sendPhase2B(to proto.NodeID, inst, rnd int64) {
	if a.Cfg.Multicast {
		a.env.SendUDP(to, &msgPhase2B{Inst: inst, Rnd: rnd})
		return
	}
	mb := phase2BPool.Get()
	mb.Inst, mb.Rnd = inst, rnd
	a.env.Send(to, mb)
}

// --- learner ---

func (a *Agent) onDecision(m *msgDecision) {
	if !a.isLearner() || !a.learned.Hold(a.nextDeliver, m.Inst, m.Val) {
		return
	}
	for {
		inst, b, ok := a.learned.Take(&a.nextDeliver)
		if !ok {
			return
		}
		a.Tail.Batch(a.Trace, a.env, inst, b, nil)
	}
}

// armGapTimer periodically asks the coordinator for missing decisions.
func (a *Agent) armGapTimer() {
	proto.AfterFree(a.env, a.Cfg.Retry, a.gapTimerFn)
}

// gapTick asks the coordinator for decisions this learner might be missing.
// The request is unconditional: one for an instance that never existed is
// simply ignored.
func (a *Agent) gapTick() {
	a.env.Send(a.coordHint, msgLearnReq{From: a.nextDeliver})
	a.armGapTimer()
}

// --- garbage collection (shared subsystem, §3.3.7) ---

// versionTick reports this learner's applied version to the coordinator,
// which owns the trim floor.
func (a *Agent) versionTick() {
	r := proto.VersionReport{From: a.env.ID(), Inst: a.nextDeliver - 1}
	if a.isCoord {
		a.onVersionReport(r)
	} else {
		m := proto.VersionReportPool.Get()
		*m = r
		a.env.Send(a.coordHint, m)
	}
	proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
}

// onVersionReport runs on the coordinator: once every learner has
// reported, it trims its decision log up to the minimum applied instance
// (core.Trim) and tells acceptors to trim their vote logs.
func (a *Agent) onVersionReport(m proto.VersionReport) {
	if !a.isCoord {
		return
	}
	a.gc.Report(int64(m.From), m.Inst)
	lo, hi, ok := a.gc.Advance(len(a.Cfg.Learners))
	if !ok {
		return
	}
	a.log.Trim(lo, hi, func(_ int64, b *logRec) {
		if b.pooled {
			a.gc.Retire(b.val.Vals)
		}
	})
	tf := proto.TrimFloor{Inst: hi}
	for _, id := range a.Cfg.Acceptors {
		if id == a.env.ID() {
			a.onTrimFloor(tf)
			continue
		}
		a.env.Send(id, tf)
	}
}

// onTrimFloor runs on acceptors: every consumer has applied instances up
// to m.Inst, so the votes backing them can never be needed again.
func (a *Agent) onTrimFloor(m proto.TrimFloor) {
	if !a.isAcceptor() {
		return
	}
	a.votes.Trim(a.accFloor, m.Inst, nil)
	if m.Inst >= a.accFloor {
		a.accFloor = m.Inst + 1
	}
}

// NextDeliver returns the next undelivered instance (learner progress).
func (a *Agent) NextDeliver() int64 { return a.nextDeliver }

// LiveLogLen reports how many per-instance records this agent currently
// retains across all of its instance logs (coordinator window and decision
// log, acceptor vote log, learner reorder buffer). Soak workloads sample
// it to prove garbage collection keeps log occupancy flat.
func (a *Agent) LiveLogLen() int {
	return a.open.Len() + a.log.Len() + a.votes.Len() + a.learned.Len()
}
