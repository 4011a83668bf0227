package ringpaxos

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wal"
)

// UConfig configures a U-Ring Paxos deployment (Algorithm 3). All processes
// — proposers, acceptors and learners — are laid out on one directed ring
// connected by reliable FIFO channels.
type UConfig struct {
	// Ring lists every process in ring order. The coordinator is the FIRST
	// acceptor; acceptors must occupy consecutive positions starting at the
	// coordinator ("for simplicity of discussion, it is assumed that
	// acceptors are lined up one after the other in the ring", §3.3.3).
	Ring []proto.NodeID
	// NumAcceptors is how many processes, starting at ring position 0, act
	// as acceptors (2f+1).
	NumAcceptors int
	// Learners deliver decided values (typically all ring members).
	Learners []proto.NodeID

	// Window is the maximum number of simultaneously open instances
	// (§3.3.6: U-Ring Paxos limits outstanding consensus instances).
	Window int
	// BatchBytes is the packet size (paper: 32 KB for U-Ring Paxos).
	BatchBytes int
	// BatchDelay is the upper bound on how long a staged value waits. The
	// coordinator is self-clocked: a value that finds it ready and idle
	// (nothing staged, no instance open) is proposed at once, with no
	// timer; values arriving behind an open instance batch and leave when
	// a decision frees the window or they fill BatchBytes. The delay only
	// bounds the wait when neither happens. Zero resolves to 500 µs.
	BatchDelay time.Duration
	// Retry is the Phase 1 retransmission timeout.
	Retry time.Duration
	// DiskSync makes acceptors persist votes before forwarding Phase 2.
	// Along the ring, writes happen sequentially (§3.5.5).
	DiskSync bool
	// ExecCost is the learner-side processing cost per delivered value.
	// U-Ring Paxos flow control lets a learner process a decision BEFORE
	// forwarding it (§3.3.6), so a slow learner backpressures the ring.
	ExecCost time.Duration
	// GCInterval is the shared learner-version garbage collection period
	// (§3.3.7): every GCInterval each learner
	// pipelines a proto.VersionReport around the ring; once every learner
	// has reported, acceptors trim their vote logs up to the minimum
	// reported instance. Zero resolves to DefaultGCInterval — GC is ON by
	// default, so library consumers get bounded memory without opting in.
	// A negative value disables GC (the pre-default seed behavior: vote
	// logs grow by one entry per consensus instance forever).
	GCInterval time.Duration
	// RecycleBatches lets the coordinator draw batch backing arrays from
	// its free list and reclaim them when garbage collection trims the
	// instance (plus one quarantine round). Requires GCInterval > 0 and
	// learners that consume delivered batches synchronously.
	RecycleBatches bool
	// Failover enables the liveness layer: ring-neighbor heartbeats,
	// deterministic suspicion, election of the highest-id surviving
	// acceptor as coordinator, and ring reconfiguration around the dead
	// node. The Phase 1 quorum stays a majority of the ORIGINAL 2f+1
	// acceptors, so safety holds across reconfigurations. The zero value
	// disables it — no timer, no message.
	Failover Failover
	// Durability selects what a fault.Lose crash costs this process (see
	// recovery.go). The zero value, DurModeled, keeps the legacy
	// retain-votes semantics and every pre-durability golden. DurWAL
	// additionally requires the agent's Log field to be set.
	Durability Durability
}

func (c *UConfig) defaults() {
	sharedDefaults(&c.Window, &c.BatchBytes, 32<<10, &c.BatchDelay, &c.Retry, &c.GCInterval)
	if c.NumAcceptors == 0 {
		c.NumAcceptors = len(c.Ring)
	}
}

// Coordinator returns the first acceptor in the ring.
func (c UConfig) Coordinator() proto.NodeID { return c.Ring[0] }

// uPhase2Pool and uDecisionPool recycle the two messages that pipeline
// around the ring. Each message has exactly one holder at a time — it is
// forwarded pointer-identical from hop to hop — and is recycled by its
// final consumer (the acceptor that converts a Phase 2 into a decision;
// the hop where a decision's revolution completes).
var (
	uPhase2Pool   proto.MsgPool[uPhase2]
	uDecisionPool proto.MsgPool[uDecision]
)

// UAgent is one U-Ring Paxos process.
type UAgent struct {
	Cfg UConfig
	// Trace, if set, folds this learner's delivered command sequence into
	// a delivery-equivalence digest (see core.DelivTrace). Pure
	// observation: it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace

	// ringCore is the skeleton shared with M-Ring Paxos; the Deliver hook,
	// the write-ahead Log and the delivery counters are its fields. Its ring
	// holds every process, the first nacc of them the acceptor segment.
	ringCore

	// coordinator state
	next      int64
	openCount int

	// acceptor state
	votes core.InstLog[vote]
	// ringRnd dedupes circulating ring-change announcements.
	ringRnd int64

	// Every ring process tracks learner versions (§3.3.7) — reports
	// pipeline around the whole ring — and trims its vote log when the
	// floor advances.
	versionFn func()

	// learner state
	learned core.Reorder
}

var _ proto.Handler = (*UAgent)(nil)

// Start implements proto.Handler.
func (a *UAgent) Start(env proto.Env) {
	a.Cfg.defaults()
	a.start(env, a, ringParams{
		learners: a.Cfg.Learners, retry: a.Cfg.Retry, failover: a.Cfg.Failover,
		durability: a.Cfg.Durability, diskSync: a.Cfg.DiskSync,
	}, a.Cfg.Ring, a.Cfg.NumAcceptors)
	a.batch.Init(env, a.Cfg.BatchDelay, a.flush)
	a.versionFn = a.versionTick
	if env.ID() == a.Cfg.Coordinator() {
		a.becomeCoordinator(1, a.Cfg.Ring, a.Cfg.NumAcceptors)
	}
	if a.Cfg.GCInterval > 0 && a.isLearner() {
		proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
	}
	if a.Cfg.Failover.Enabled() && a.ringIndex() >= 0 {
		a.armDetector()
	}
}

func (a *UAgent) succ() proto.NodeID {
	i := a.ringIndex()
	return a.ring[(i+1)%len(a.ring)]
}

// lastAcceptor reports whether this process is the f-th acceptor after the
// coordinator — the process that detects decisions (Algorithm 3, Task 4).
func (a *UAgent) lastAcceptor() bool {
	return a.ringIndex() == a.nacc-1
}

// Coordinator returns this agent's current view of the ring coordinator
// (the first ring position; re-laid-out by failover reconfigurations).
func (a *UAgent) Coordinator() proto.NodeID { return a.ring[0] }

// sendPhase1A implements layout: the coordinator installs the layout at
// once and sends the round to the acceptor segment.
func (a *UAgent) sendPhase1A(ring []proto.NodeID, nacc int) {
	a.ring, a.nacc = ring, nacc
	m := phase1A{ringAt{Rnd: a.crnd}}
	if a.fo.tookOver {
		// Propose the reconfigured layout with the round: the surviving
		// quorum abides by it when it promises.
		m.Ring, m.NAcc = ring, nacc
	}
	for i := 0; i < nacc; i++ {
		a.env.Send(ring[i], m)
	}
}

// Propose submits a value from this node; non-coordinators forward it along
// the ring until it reaches the coordinator (Algorithm 3, Task 1).
func (a *UAgent) Propose(v core.Value) {
	if a.isCoord {
		a.enqueue(v)
		return
	}
	m := msgProposePool.Get()
	m.V = v
	a.env.Send(a.succ(), m)
}

// Receive implements proto.Handler.
func (a *UAgent) Receive(from proto.NodeID, m proto.Message) {
	a.heard(from)
	switch msg := m.(type) {
	case *MsgPropose:
		if a.isCoord {
			a.enqueue(msg.V)
			msgProposePool.Put(msg)
		} else if a.retired {
			// An amnesiac ex-coordinator cannot serve the proposal and must
			// not blindly forward it either: with no live coordinator on
			// the ring it would circulate forever. Clients re-submit — and a
			// stamped proposal is rejected explicitly so its session backs
			// off on evidence instead of timeout alone.
			if msg.V.Client != 0 {
				n := proto.ProposeNackPool.Get()
				n.Client, n.Seq, n.Coord = msg.V.Client, msg.V.Seq, a.ring[0]
				a.env.Send(proto.NodeID(msg.V.Client), n)
			}
			msgProposePool.Put(msg)
		} else {
			a.env.Send(a.succ(), msg)
		}
	case phase1A:
		a.onPhase1A(from, msg)
	case phase1B:
		a.onPhase1B(from, msg)
	case *uPhase2:
		a.onPhase2(msg)
	case *uDecision:
		a.onDecision(msg)
	case *proto.VersionReport:
		a.onVersionReport(msg)
	case uRingChange:
		a.onRingChange(msg)
	default:
		a.receiveShared(from, m)
	}
}

// loseState implements layout: an honest crash takes the vote log and the
// coordinator's window accounting.
func (a *UAgent) loseState() {
	a.votes = core.InstLog[vote]{}
	a.openCount = 0
	a.next = 0
}

// replayRecord implements layout (only votes are ever logged).
func (a *UAgent) replayRecord(r wal.Record) {
	if r.Kind != wal.KindVote {
		return
	}
	v, _ := a.votes.Put(r.Inst)
	*v = vote{rnd: r.Rnd, vid: r.VID, val: r.Val}
	if r.Inst >= a.next {
		a.next = r.Inst + 1
	}
}

// --- coordinator ---

// enqueue is self-clocked (Nagle's rule): a value that finds the ready
// coordinator idle — nothing staged, no instance open — leaves at once
// with no flush timer armed. Any other value is staged behind the open
// instances and leaves with the next window release or at BatchBytes; the
// BatchDelay timer only bounds the wait when neither comes (Phase 1 still
// running, a decision lost at a failover).
func (a *UAgent) enqueue(v core.Value) {
	if a.isCoord && a.phase1Done && a.openCount == 0 && a.batch.Len() == 0 {
		a.batch.Stage(v)
		a.flush()
		return
	}
	if a.batch.Add(v, a.Cfg.BatchBytes) {
		a.flush()
	}
}

func (a *UAgent) flush() {
	if !a.isCoord || !a.phase1Done {
		return
	}
	for a.batch.Len() > 0 && a.openCount < a.Cfg.Window {
		pooled := a.Cfg.RecycleBatches && a.Cfg.GCInterval > 0
		a.startInstance(a.batch.Cut(&a.gc.Pool, pooled, a.Cfg.BatchBytes), pooled)
	}
}

func (a *UAgent) startInstance(b core.Batch, pooled bool) {
	inst := a.next
	a.next++
	a.openCount++
	vid := a.freshVID(inst)
	// The coordinator votes itself and sends the combined 2A/2B onward.
	v, _ := a.votes.Put(inst)
	*v = vote{rnd: a.crnd, vid: vid, val: b, pooled: pooled}
	m := uPhase2Pool.Get()
	m.Inst, m.Rnd, m.VID, m.Val = inst, a.crnd, vid, b
	if !a.syncVotes() {
		a.forwardPhase2(m)
		return
	}
	// The coordinator's self-vote is stable before the 2A/2B leaves.
	a.persist(wal.Record{Kind: wal.KindVote, Inst: inst, Rnd: a.crnd, VID: vid, Val: b},
		func() { a.forwardPhase2(m) })
}

func (a *UAgent) forwardPhase2(m *uPhase2) {
	if a.nacc == 1 {
		// Degenerate single-acceptor ring: decide immediately.
		a.sendDecision(m)
		uPhase2Pool.Put(m)
		return
	}
	a.env.Send(a.succ(), m)
}

func (a *UAgent) onPhase1A(from proto.NodeID, m phase1A) {
	if m.Rnd <= a.rnd {
		return
	}
	if a.isCoord && m.Rnd > a.crnd {
		a.standDown()
	}
	if len(m.Ring) > 0 {
		a.ring, a.nacc = m.Ring, m.NAcc // abide by the proposed layout
		a.fo.needRing = false
	}
	if !a.isAcceptor() || a.retired {
		// A retired process must never promise again: it cannot remember
		// what it promised before the crash.
		return
	}
	a.rnd = m.Rnd
	reply := phase1B{Rnd: a.rnd, Votes: make(map[int64]vote), Floor: a.gc.Floor()}
	a.votes.Range(func(inst int64, v *vote) bool {
		reply.Votes[inst] = *v
		return true
	})
	a.promise(from, reply)
}

func (a *UAgent) onPhase1B(from proto.NodeID, m phase1B) {
	// The quorum is a majority of the ORIGINAL 2f+1 acceptors even after a
	// reconfiguration shrank the live segment: any value chosen in an
	// earlier round reached a majority of the original set, so only an
	// original-majority intersection is guaranteed to surface it.
	if !a.promised(from, m, a.Cfg.NumAcceptors/2+1) {
		return
	}
	// Adopt the quorum's highest trim floor first: the floor guard below
	// then filters votes for instances some acceptor already trimmed.
	for _, p := range a.promises {
		a.gc.SetFloor(p.Floor)
	}
	if f := a.gc.Floor(); f > a.next {
		// Resume numbering above the trimmed prefix: a fresh instance
		// below the floor would ghost in our own vote ring and stall
		// mid-ring at any acceptor that already trimmed it.
		a.next = f
	}
	adopted := a.adoptVotes(nil)
	if a.fo.tookOver && len(a.ring) > 1 {
		// Circulate the reconfigured layout once around the new ring BEFORE
		// re-proposing the adopted instances: their Phase 2s (and the
		// decisions the last acceptor derives from them) travel the same
		// links, and a downstream member still holding the pre-failure
		// layout would forward those decisions to the dead node. Lost
		// decisions leave the new coordinator's window permanently
		// exhausted — with more adopted instances than Window, it could
		// never open an instance again.
		a.ringRnd = a.crnd
		a.env.Send(a.succ(), uRingChange{ringAt: ringAt{a.crnd, a.ring, a.nacc}})
	}
	for _, ad := range adopted {
		if ad.inst < a.gc.Floor() {
			// Globally applied and trimmed: acceptors that trimmed the
			// instance drop its Phase 2 at the floor guard, so re-opening
			// it could never complete its ring pass. Instances this node
			// merely DELIVERED are still re-proposed — after a failover
			// other learners may have a gap there, and their own dedup
			// (deliverLocal) discards the duplicate.
			continue
		}
		if ad.inst >= a.next {
			a.next = ad.inst + 1
		}
		a.openCount++
		v, _ := a.votes.Put(ad.inst)
		*v = vote{rnd: a.crnd, vid: ad.vid, val: ad.val}
		m := uPhase2Pool.Get()
		m.Inst, m.Rnd, m.VID, m.Val = ad.inst, a.crnd, ad.vid, ad.val
		a.forwardPhase2(m)
	}
	a.flush()
}

// --- acceptor (Task 4) ---

func (a *UAgent) onPhase2(m *uPhase2) {
	if !a.isAcceptor() || a.isCoord || a.retired {
		// A retired mid-segment acceptor swallows the Phase 2 instead of
		// voting or forwarding: the honest consequence of lost state is
		// that the pipeline stalls at the amnesiac hop.
		uPhase2Pool.Put(m)
		return
	}
	if m.Rnd < a.rnd {
		uPhase2Pool.Put(m)
		return
	}
	if m.Inst < a.gc.Floor() {
		// Straggler for a trimmed (globally applied) instance: re-creating
		// its vote below the GC floor would leave a permanent ghost in the
		// instance ring, since garbage collection never looks below the
		// floor again.
		uPhase2Pool.Put(m)
		return
	}
	a.rnd = m.Rnd
	v, _ := a.votes.Put(m.Inst)
	*v = vote{rnd: m.Rnd, vid: m.VID, val: m.Val}
	if !a.syncVotes() {
		a.phase2Proceed(m)
		return
	}
	// Votes persist sequentially along the ring (§3.5.5).
	a.persist(wal.Record{Kind: wal.KindVote, Inst: m.Inst, Rnd: m.Rnd, VID: m.VID, Val: m.Val},
		func() { a.phase2Proceed(m) })
}

func (a *UAgent) phase2Proceed(m *uPhase2) {
	if a.lastAcceptor() {
		a.sendDecision(m)
		uPhase2Pool.Put(m)
	} else {
		a.env.Send(a.succ(), m)
	}
}

// sendDecision starts the decision's revolution around the ring (Task 5).
func (a *UAgent) sendDecision(m *uPhase2) {
	d := uDecisionPool.Get()
	d.Inst, d.VID, d.Val, d.Hops = m.Inst, m.VID, m.Val, 0
	a.deliverLocal(d)
	a.releaseWindow()
	if len(a.ring) > 1 {
		a.forwardDecision(d)
	} else {
		uDecisionPool.Put(d)
	}
}

// --- decision circulation and delivery ---

func (a *UAgent) onDecision(m *uDecision) {
	if len(m.Val.Vals) == 0 {
		// Value was stripped upstream: acceptors already hold it.
		if v, ok := a.votes.Get(m.Inst); ok && v.vid == m.VID {
			m.Val = v.val
		}
	}
	if a.retired && len(m.Val.Vals) == 0 {
		// The vote log that would restore the stripped payload died with
		// the crash: pass the decision on without consuming it locally —
		// delivering an empty batch here would silently skip the
		// instance's values and diverge this learner's sequence.
	} else {
		a.deliverLocal(m)
	}
	a.releaseWindow()
	m.Hops++
	if m.Hops >= len(a.ring)-1 {
		uDecisionPool.Put(m)
		return // full revolution complete
	}
	// A slow learner delays this forward naturally: its CPU is busy
	// executing delivered commands, so the reliable channel's window to it
	// fills and the whole ring backpressures (§3.3.6).
	a.forwardDecision(m)
}

// forwardDecision sends the decision to the successor, stripping the payload
// when the successor is an acceptor: acceptors stored the value during
// Phase 2, so re-sending it would double each link's traffic ("forwarding
// the chosen-value ends at the predecessor of the process that has proposed
// the chosen value", Task 5; the coordinator piggybacks new proposals on the
// circulating decision).
func (a *UAgent) forwardDecision(m *uDecision) {
	nextIdx := (a.ringIndex() + 1) % len(a.ring)
	if nextIdx < a.nacc {
		m.Val = core.Batch{}
	}
	a.env.Send(a.ring[nextIdx], m)
}

// releaseWindow frees coordinator window space once per decision seen.
func (a *UAgent) releaseWindow() {
	if !a.isCoord {
		return
	}
	if a.openCount > 0 {
		a.openCount--
	}
	a.flush()
}

// deliverLocal records and, in instance order, delivers a decision.
func (a *UAgent) deliverLocal(m *uDecision) {
	if !a.isLearner() || !a.learned.Hold(a.nextDeliver, m.Inst, m.Val) {
		return
	}
	for {
		inst, b, ok := a.learned.Take(&a.nextDeliver)
		if !ok {
			return
		}
		if a.Cfg.ExecCost > 0 && len(b.Vals) > 0 {
			a.env.Work(time.Duration(len(b.Vals))*a.Cfg.ExecCost, func() { a.finishBatch(inst, b) })
			continue
		}
		a.finishBatch(inst, b)
	}
}

func (a *UAgent) finishBatch(inst int64, b core.Batch) {
	a.Tail.Batch(a.Trace, a.env, inst, b, a.dedupPass(inst, b))
}

// --- garbage collection (shared subsystem, §3.3.7) ---

// versionTick reports this learner's applied version. The report is
// recorded locally, then pipelined around the ring like every other U-Ring
// message, so each process — in particular every acceptor — sees every
// learner's version without any extra fan-out.
func (a *UAgent) versionTick() {
	v := a.nextDeliver - 1
	a.gc.Report(int64(a.env.ID()), v)
	a.trimLogs()
	if len(a.ring) > 1 {
		m := proto.VersionReportPool.Get()
		m.From, m.Inst = a.env.ID(), v
		a.env.Send(a.succ(), m)
	}
	proto.AfterFree(a.env, a.Cfg.GCInterval, a.versionFn)
}

// onVersionReport records a circulating report and forwards the same
// pointer until it has completed one revolution (the originator recorded
// itself at send); the last hop recycles it.
func (a *UAgent) onVersionReport(m *proto.VersionReport) {
	a.gc.Report(int64(m.From), m.Inst)
	a.trimLogs()
	m.Hops++
	if m.Hops < len(a.ring)-1 {
		a.env.Send(a.succ(), m)
	} else {
		proto.VersionReportPool.Put(m)
	}
}

// trimLogs drops vote-log entries for globally applied instances once
// every learner has reported. Arrays owned by the coordinator's batch pool
// are quarantined for one GC round before reuse (see core.Trim).
func (a *UAgent) trimLogs() {
	lo, hi, ok := a.gc.Advance(len(a.learners))
	if !ok {
		return
	}
	a.votes.Trim(lo, hi, func(_ int64, v *vote) {
		if v.pooled {
			a.gc.Retire(v.val.Vals)
		}
	})
	a.gcTrimmed()
}

// --- failover (layout policy) ---

// ringAdopted implements layout: a circulating announcement of the layout
// a live member already reported is a duplicate.
func (a *UAgent) ringAdopted(rnd int64) { a.ringRnd = max(a.ringRnd, rnd) }

func (a *UAgent) onRingChange(m uRingChange) {
	if len(m.Ring) == 0 || m.Rnd <= a.ringRnd {
		return
	}
	a.ringRnd = m.Rnd
	a.adoptRing(m.ringAt)
	m.Hops++
	if m.Hops < len(m.Ring)-1 {
		a.env.Send(a.succ(), m)
	}
}

// dropCoordState implements layout.
func (a *UAgent) dropCoordState() { a.openCount = 0 }

// LiveLogLen reports how many per-instance records this agent currently
// retains (acceptor vote log plus learner reorder buffer). Soak workloads
// sample it to prove garbage collection keeps log occupancy flat.
func (a *UAgent) LiveLogLen() int { return a.votes.Len() + a.learned.Len() }
