package ringpaxos

import (
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wal"
)

// ringCore is the protocol skeleton M-Ring and U-Ring Paxos share (see the
// package comment). Each agent embeds one by value, so per-message code
// reaches it through static method calls.
type ringCore struct {
	// Tail holds the Deliver hook and the delivery counters of this learner.
	core.Tail
	// Log is this process's write-ahead log, required when Cfg.Durability
	// is DurWAL. It models the stable medium, so the DEPLOYMENT owns it
	// (the rig sets it before Start): it survives the agent's crash the
	// way a disk survives a process, and replayWAL reads it on restart.
	Log *wal.Log

	env proto.Env
	lay layout
	ringParams

	// ring is the live ring and nacc the length of its acceptor segment
	// (M-Ring: the whole ring), re-laid-out by failover reconfigurations;
	// ringSize is the configured size spare refill restores.
	ring     []proto.NodeID
	nacc     int
	ringSize int
	// rnd is the highest round promised or voted in; crnd the round this
	// process coordinates.
	rnd        int64
	crnd       int64
	isCoord    bool
	phase1Done bool
	promises   map[proto.NodeID]phase1B
	// retired marks a process that restarted after losing its acceptor
	// state with no log to replay: classic Paxos forbids it from ever
	// promising or voting again (it cannot remember what it promised), so
	// it stays out of the acceptor and coordinator roles for the rest of
	// the run. The learner role is unaffected.
	retired bool
	// fo is the failure detector / election state (inert unless failover
	// is enabled).
	fo foState

	// gc is the learner-version garbage collection (§3.3.7): who applied
	// what, the trim floor, and the pool batch arrays cycle through.
	gc    core.Trim
	batch core.Batcher // the coordinator's staged values

	// nextDeliver is the learner's in-order delivery frontier.
	nextDeliver int64
	// dedup is the exactly-once layer's replicated per-client
	// last-applied-seq table (see core.DedupTable). Nil until the first
	// stamped value is seen, so deployments without client sessions never
	// allocate or consult it.
	dedup *core.DedupTable
	// dedupSup is a reusable scratch marking which values of the batch
	// being finished are duplicates (suppressed).
	dedupSup []bool

	// DupSuppressed counts stamped commands that were decided again (a
	// client retry won a second instance) and were acked from the dedup
	// table instead of re-executed.
	DupSuppressed int64
}

// ringParams is what the core reads of MConfig/UConfig, copied at Start.
// The last two fields are the layout data: coordLast puts the coordinator
// at the last ring position (M-Ring) instead of the first (U-Ring), and
// spares are acceptors outside the ring that refill it.
type ringParams struct {
	learners   []proto.NodeID
	retry      time.Duration
	failover   Failover
	durability Durability
	diskSync   bool
	coordLast  bool
	spares     []proto.NodeID
}

// layout is the part of the layout policy that is code: how a round and
// its ring are proposed, and which variant-specific state a role change
// discards. Each agent implements it for its core, which calls it only
// from failover, recovery, Phase 1 and timer-tick paths, never per message
// or per value.
type layout interface {
	// sendPhase1A proposes round crnd, and the layout where the variant
	// announces it with the round, to the acceptors of ring.
	sendPhase1A(ring []proto.NodeID, nacc int)
	// ringAdopted runs after the core installed a layout announced at
	// round rnd.
	ringAdopted(rnd int64)
	// dropCoordState discards a stale coordinator's open instances;
	// isCoord still holds while it runs.
	dropCoordState()
	// loseState discards what an honest Lose crash destroys of the acceptor
	// and coordinator state the agent keeps outside the core.
	loseState()
	// replayRecord folds one vote or decision record into the stores.
	replayRecord(r wal.Record)
}

// sharedDefaults resolves the knobs both configs carry; packet is the
// variant's batch size (paper: 8 KB for M-Ring, 32 KB for U-Ring Paxos).
func sharedDefaults(window, batchBytes *int, packet int, batchDelay, retry, gcInterval *time.Duration) {
	if *window == 0 {
		*window = 64
	}
	if *batchBytes == 0 {
		*batchBytes = packet
	}
	if *batchDelay == 0 {
		*batchDelay = 500 * time.Microsecond
	}
	if *retry == 0 {
		*retry = 20 * time.Millisecond
	}
	if *gcInterval == 0 {
		*gcInterval = DefaultGCInterval
	}
	if *gcInterval < 0 {
		*gcInterval = 0 // explicit off: no version timer is ever armed
	}
}

func (c *ringCore) start(env proto.Env, lay layout, p ringParams, ring []proto.NodeID, nacc int) {
	c.env, c.lay, c.ringParams = env, lay, p
	c.ring, c.nacc, c.ringSize = ring, nacc, len(ring)
	c.promises = make(map[proto.NodeID]phase1B)
}

// ringIndex returns this node's position in the current ring, or -1.
func (c *ringCore) ringIndex() int { return slices.Index(c.ring, c.env.ID()) }

func (c *ringCore) isAcceptor() bool {
	i := c.ringIndex()
	return i >= 0 && i < c.nacc
}

func (c *ringCore) isLearner() bool { return slices.Contains(c.learners, c.env.ID()) }

// IsCoordinator reports whether this agent currently leads the ring with
// a completed Phase 1. Failover-aware callers (skip pacers, rigs) consult
// it instead of comparing against the static configuration.
func (c *ringCore) IsCoordinator() bool { return c.isCoord && c.phase1Done }

// NextDeliver returns the learner's delivery frontier.
func (c *ringCore) NextDeliver() int64 { return c.nextDeliver }

// coordOf returns the coordinator position of a non-empty ring.
func (c *ringCore) coordOf(ring []proto.NodeID) proto.NodeID {
	if c.coordLast {
		return ring[len(ring)-1]
	}
	return ring[0]
}

// becomeCoordinator starts Phase 1 with a fresh round over a ring layout,
// retrying with a higher round until a quorum promises.
func (c *ringCore) becomeCoordinator(minRound int64, ring []proto.NodeID, nacc int) {
	c.isCoord = true
	c.phase1Done = false
	c.promises = make(map[proto.NodeID]phase1B)
	r := (minRound << 10) | int64(c.env.ID())
	if r <= c.crnd {
		r = (((c.crnd >> 10) + 1) << 10) | int64(c.env.ID())
	}
	c.crnd = r
	c.lay.sendPhase1A(ring, nacc)
	c.env.After(c.retry, func() {
		if c.isCoord && !c.phase1Done {
			c.becomeCoordinator(c.crnd>>10, ring, nacc)
		}
	})
}

// promised records a Phase 1B for the round being opened and reports
// whether it completed the quorum, which ends Phase 1.
func (c *ringCore) promised(from proto.NodeID, m phase1B, quorum int) bool {
	if !c.isCoord || m.Rnd != c.crnd || c.phase1Done {
		return false
	}
	c.promises[from] = m
	c.phase1Done = len(c.promises) >= quorum
	return c.phase1Done
}

// standDown retires a stale coordinator that observed a higher round.
// Every acceptor fences its Phase 1A/2 messages against the new round, so
// its open instances and staged values can never complete — the new
// coordinator re-proposes anything a quorum saw, and clients re-submit
// the rest.
func (c *ringCore) standDown() {
	if !c.isCoord {
		return
	}
	c.lay.dropCoordState()
	c.batch.Reset()
	c.isCoord, c.phase1Done = false, false
	c.fo.tookOver = false
}

// adoptRing installs an announced ring layout; callers have checked the
// announcement is not stale. A coordinator of a lower round stands down.
func (c *ringCore) adoptRing(l ringAt) {
	if c.isCoord && l.Rnd > c.crnd {
		c.standDown()
	}
	if l.Rnd > c.rnd {
		c.rnd = l.Rnd // round progress signal for the escalation check
	}
	c.ring, c.nacc = l.Ring, l.NAcc
	c.fo.needRing = false
}

// freshVID names the value this coordinator proposes in inst.
func (c *ringCore) freshVID(inst int64) core.ValueID { return core.ValueID(c.crnd<<32 | inst) }

// adoption is one instance a new coordinator must re-propose, with the
// vote it adopts for it.
type adoption struct {
	inst int64
	vote
}

// adoptVotes merges the prior votes of the Phase 1 quorum: per instance
// the vote of the highest round, instances in ascending order. skip, if
// non-nil, names instances that need no re-proposal. An adopted vote keeps
// its value id: consensus is on value ids, so an instance the dead
// coordinator may already have decided at some learner must be re-proposed
// as the SAME id, never a fresh one.
func (c *ringCore) adoptVotes(skip func(inst int64) bool) []adoption {
	adopt := make(map[int64]vote)
	for _, p := range c.promises {
		for inst, v := range p.Votes {
			if skip != nil && skip(inst) {
				continue
			}
			if cur, ok := adopt[inst]; !ok || v.rnd > cur.rnd {
				adopt[inst] = v
			}
		}
	}
	out := make([]adoption, 0, len(adopt))
	for inst, v := range adopt {
		if v.vid == 0 {
			v.vid = c.freshVID(inst)
		}
		out = append(out, adoption{inst, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].inst < out[j].inst })
	return out
}

// --- garbage collection (§3.3.7) ---

// gcTrimmed trims what follows the store below the new floor.
func (c *ringCore) gcTrimmed() {
	if c.walOn() {
		// The log trims in lockstep with the store, bounding replay work
		// the same way garbage collection bounds acceptor memory.
		c.Log.Trim(c.gc.Floor())
	}
	// The dedup table trims in concert with the GC floor: rows of clients
	// that announced departure (Retire) and whose last activity fell below
	// the floor are dropped; live clients are never forgotten.
	c.dedup.Trim(c.gc.Floor())
}

// --- exactly-once check ---

// dedupPass runs the exactly-once check over a finished batch: the first
// application of a stamped (client, seq) commits it to the dedup table
// and acks the session; a sequence already in the table (a retry that won
// a second consensus instance) is acked FROM the table and marked for
// suppression — not traced, not delivered, not executed. The decision is
// a pure function of the decided sequence and the table it built, so
// every learner suppresses the same instances and delivered sequences
// stay replica-identical; the marks go to the delivery tail. Returns nil,
// at the cost of one field compare per value, when the batch carries no
// stamped values.
func (c *ringCore) dedupPass(inst int64, val core.Batch) []bool {
	stamped := false
	for i := range val.Vals {
		if val.Vals[i].Client != 0 {
			stamped = true
			break
		}
	}
	if !stamped {
		return nil
	}
	if c.dedup == nil {
		c.dedup = core.NewDedupTable()
	}
	if cap(c.dedupSup) < len(val.Vals) {
		c.dedupSup = make([]bool, len(val.Vals))
	}
	sup := c.dedupSup[:len(val.Vals)]
	for i, v := range val.Vals {
		sup[i] = false
		if v.Client == 0 {
			continue
		}
		if !c.dedup.Commit(v.Client, v.Seq, inst) {
			sup[i] = true
			c.DupSuppressed++
		}
		// Every learner acks independently; sessions dedup.
		m := proto.ClientAckPool.Get()
		m.Client, m.Seq = v.Client, v.Seq
		c.env.Send(proto.NodeID(v.Client), m)
	}
	return sup
}
