package ringpaxos

import (
	"repro/internal/core"
	"repro/internal/proto"
)

const headerBytes = 32 // modeled fixed header of every protocol message

// Wire messages of M-Ring Paxos and U-Ring Paxos. The "m" prefix marks
// multicast-variant messages, "u" the unicast variant; Phase 1 and the
// failover and restart messages further down are shared.
type (
	// MsgPropose carries a client value toward the coordinator.
	MsgPropose struct{ V core.Value }

	// ringAt is a ring layout as of round Rnd, the payload of every message
	// that proposes, announces or reports one. NAcc is the length of the
	// acceptor segment (M-Ring: the whole ring).
	ringAt struct {
		Rnd  int64
		Ring []proto.NodeID
		NAcc int
	}
	// phase1A opens round Rnd over direct channels (Phase 1 is infrequent
	// and pre-executed). A non-empty Ring proposes the layout (§3.3.2: the
	// coordinator proposes the ring before Phase 1; acceptors abide by it
	// when they promise): M-Ring sends it with every round, U-Ring only for
	// a reconfigured ring, and a nil Ring leaves the receiver's layout
	// untouched.
	phase1A struct{ ringAt }
	// phase1B is an acceptor's promise with its prior votes. M-Ring reports
	// MaxInst, the highest instance the acceptor has ever seen, so a new
	// coordinator resumes numbering above garbage-collected instances.
	// U-Ring reports Floor, the acceptor's trim floor, so a new coordinator
	// never resurrects a vote another acceptor already trimmed (it would
	// stall mid-ring at that acceptor's floor guard and pin a window slot
	// forever).
	phase1B struct {
		Rnd     int64
		MaxInst int64
		Floor   int64
		Votes   map[int64]vote
	}
	// decIDs is a run of decided instance ids with their partition masks
	// (partitioned mode) and the chosen value ids, index-parallel.
	// Consensus is on value ids, so the vid IS the decision: it travels
	// inside the modeled 8-byte decision id, not on top of it. The
	// coordinator queues decisions in one and copies them into the
	// multicast that announces them.
	decIDs struct {
		Insts []int64
		Masks []uint64
		VIDs  []core.ValueID
	}
	// mPhase2A proposes batch Val with unique id VID in instance Inst.
	// Decided piggybacks decision ids of previously finished instances
	// (the Task-5-with-Task-3 overlap of §3.3.2). It is multicast as a
	// pooled pointer recycled by its last receiver (phase2APool).
	mPhase2A struct {
		proto.Refs
		Inst    int64
		Rnd     int64
		VID     core.ValueID
		Val     core.Batch
		Decided decIDs
	}
	// mPhase2B travels along the ring; consensus is on value ids, so it
	// carries no payload.
	mPhase2B struct {
		Inst int64
		Rnd  int64
		VID  core.ValueID
	}
	// mDecision is a standalone decision flush (used when there is no 2A
	// to piggyback on), pooled like mPhase2A (decisionPool).
	mDecision struct {
		proto.Refs
		decIDs
	}
	// mRetransmitReq asks a preferential acceptor for lost instances.
	mRetransmitReq struct{ Insts []int64 }
	// mRetransmit answers with the stored value and decision status.
	mRetransmit struct {
		Inst    int64
		VID     core.ValueID
		Val     core.Batch
		Mask    uint64
		Decided bool
	}
	// mSlowDown is a learner flow-control notification, forwarded along
	// the ring to the coordinator (§3.3.6). Learner applied-version
	// reports for garbage collection (§3.3.7) use the shared
	// proto.VersionReport message; acceptors circulate it once around the
	// ring so every acceptor sees every learner's version.
	mSlowDown struct{ Backlog int }

	// uPhase2 is the combined Phase 2A/2B message of U-Ring Paxos
	// (Algorithm 3): it travels through the acceptor segment of the ring.
	uPhase2 struct {
		Inst int64
		Rnd  int64
		VID  core.ValueID
		Val  core.Batch
	}
	// uDecision circulates the decision (and the chosen value) along the
	// remainder of the ring. Hops counts forwards so circulation stops
	// after one revolution.
	uDecision struct {
		Inst int64
		VID  core.ValueID
		Val  core.Batch
		Hops int
	}

	// mHeartbeat is the failure detector's ring-neighbor beacon: each ring
	// member sends one to its successor every Failover.Heartbeat and
	// suspects its predecessor after Failover.Suspect of silence. Only ever
	// sent when Failover is enabled, so deployments without it see zero
	// extra messages or timers.
	mHeartbeat struct{ Rnd int64 }
	// mTakeOver nominates the receiver as the new coordinator over Ring
	// (its coordinator position must be the receiver). Rnd is the
	// nominator's highest observed round, so the nominee's Phase 1 starts
	// strictly above the dead coordinator's round.
	mTakeOver struct{ ringAt }
	// mRingChange announces a reconfigured ring on the multicast group
	// after a takeover's Phase 1 completes, so learners and proposers —
	// which are not ring members and never see a Phase 1A — re-aim their
	// retransmission requests and proposals at the new coordinator.
	mRingChange struct{ ringAt }
	// uRingChange circulates a reconfigured ring layout once around the
	// U-Ring (there is no multicast group to announce on): every member
	// adopts the new ring and acceptor count, re-routing succ() around the
	// dead node. Hops stops the revolution.
	uRingChange struct {
		ringAt
		Hops int
	}

	// mSnapshot transfers application state up to (excluding) instance
	// Floor to a learner whose retransmission request fell below the trim
	// floor — the instances it needs no longer exist anywhere, so catch-up
	// is by state, not by replay (§3.5.5). StateBytes is the modeled
	// snapshot size; the learner charges it to its disk model on install.
	// Dedup carries the sender's per-client last-applied-seq table so the
	// catching-up learner stays exactly-once consistent for commands
	// decided below the floor (nil — and zero wire bytes — when no client
	// sessions are running).
	mSnapshot struct {
		Floor      int64
		StateBytes int
		Dedup      []core.DedupEntry
	}
	// mRingStateReq asks a ring member for the current ring layout. Sent
	// by a node restarting after a crash, before it arms its failure
	// detector: the ring may have been reconfigured while it was down, and
	// acting on the stale pre-crash layout would aim the detector at a
	// node that is no longer its predecessor (or trigger a spurious
	// takeover of a ring that already moved on).
	mRingStateReq struct{}
	// mRingState answers with the replier's current layout and round.
	mRingState struct{ ringAt }
)

type vote struct {
	rnd int64
	vid core.ValueID
	val core.Batch
	// pooled marks votes whose batch backing array came from the owning
	// agent's BatchPool (only ever set by the U-Ring coordinator); the
	// array is recycled when garbage collection trims the instance.
	pooled bool
}

// Size implements proto.Message for each wire type.
func (m MsgPropose) Size() int { return headerBytes + m.V.Bytes }
func (l ringAt) Size() int     { return headerBytes + 4*len(l.Ring) }
func (m phase1B) Size() int {
	n := headerBytes
	for _, v := range m.Votes {
		n += headerBytes + v.val.Size()
	}
	return n
}
func (d *decIDs) size() int        { return 8*len(d.Insts) + 8*len(d.Masks) }
func (m *mPhase2A) Size() int      { return headerBytes + m.Val.Size() + m.Decided.size() }
func (m mPhase2B) Size() int       { return headerBytes }
func (m *mDecision) Size() int     { return headerBytes + m.size() }
func (m mRetransmitReq) Size() int { return headerBytes + 8*len(m.Insts) }
func (m mRetransmit) Size() int    { return headerBytes + m.Val.Size() }
func (m mSlowDown) Size() int      { return headerBytes }
func (m uPhase2) Size() int        { return headerBytes + m.Val.Size() }
func (m uDecision) Size() int {
	return headerBytes + m.Val.Size()
}
func (m mHeartbeat) Size() int { return headerBytes }
func (m mSnapshot) Size() int {
	return headerBytes + m.StateBytes + core.DedupEntryBytes*len(m.Dedup)
}
func (m mRingStateReq) Size() int { return headerBytes }
