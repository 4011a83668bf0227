package ringpaxos

// Coordinator failover (§3.3): a ring-neighbor failure detector,
// coordinator election within the ring, and ring reconfiguration that
// excludes dead members. The machinery lives on ringCore and is shared
// by M-Ring and U-Ring Paxos; each agent plugs in its own ring layout
// rules (M-Ring: coordinator last, refill from spares; U-Ring:
// coordinator first, acceptor segment shrinks).
//
// Everything here is opt-in via Failover on the config. With the zero
// value the agents arm no detector timer and send no extra message, so
// deployments that predate failover stay byte-identical.

import (
	"slices"
	"time"

	"repro/internal/proto"
)

// Failover configures the liveness layer. The zero value disables it
// entirely: no heartbeat timer is armed, no detector state is kept, and
// no failover message is ever sent.
type Failover struct {
	// Heartbeat is the detector period: every Heartbeat each ring member
	// sends a beacon to its ring successor and checks how long its
	// predecessor has been silent. Zero disables failover.
	Heartbeat time.Duration
	// Suspect is the silence window after which the predecessor is
	// declared dead. Zero resolves to 3*Heartbeat. Any message from the
	// predecessor — data traffic or heartbeat — refreshes the window, so
	// a loaded ring never false-suspects.
	Suspect time.Duration
}

// Enabled reports whether the failover layer is active.
func (f Failover) Enabled() bool { return f.Heartbeat > 0 }

func (f Failover) suspectAfter() time.Duration {
	if f.Suspect > 0 {
		return f.Suspect
	}
	return 3 * f.Heartbeat
}

// foState is the per-agent failure detector and election bookkeeping.
type foState struct {
	tickFn func()
	// mon is true while pred names the ring predecessor under watch; last
	// is the sim time of its most recent sign of life.
	mon  bool
	pred proto.NodeID
	last time.Duration
	// dead accumulates locally observed permanent failures; elections lay
	// out the new ring from the survivors.
	dead map[proto.NodeID]bool
	// nominated/nominee/nomRnd remember the last takeover nomination, so
	// a second suspicion with no round progress escalates past a nominee
	// that died before taking over (double failover).
	nominated bool
	nominee   proto.NodeID
	nomRnd    int64
	// tookOver marks coordinatorship gained by election rather than by
	// initial configuration: only then is the reconfigured ring
	// propagated to non-ring members after Phase 1.
	tookOver bool
	// needRing is set when the node restarts after a crash: before arming
	// the detector it must learn the current ring layout from a live
	// member (the ring may have been reconfigured during the outage).
	// askIdx rotates the member asked, so a dead first choice does not
	// stall the catch-up. Cleared by any layout-bearing reply.
	needRing bool
	askIdx   int
}

// observe re-aims the monitor at pred, resetting the silence window when
// the target changes (ring reconfigurations rewire neighbors). It
// returns true when the currently monitored predecessor has been silent
// longer than the suspicion window.
func (f *foState) observe(pred proto.NodeID, now time.Duration, window time.Duration) bool {
	if !f.mon || pred != f.pred {
		f.mon, f.pred, f.last = true, pred, now
		return false
	}
	return now-f.last > window
}

// suspect folds one suspicion of pred into the dead set. When pred was
// already declared dead and no round progress happened since the last
// nomination, the nominee itself is presumed dead too and joins the set
// (the caller re-elects past it).
func (f *foState) suspect(pred proto.NodeID, rnd int64) {
	if f.dead == nil {
		f.dead = make(map[proto.NodeID]bool)
	}
	if f.dead[pred] && f.nominated && rnd == f.nomRnd {
		f.dead[f.nominee] = true
	}
	f.dead[pred] = true
}

// reset discards the detector's volatile observations: the monitor aim
// (and with it the pre-crash "last heard" timestamp), the suspicion
// memory, and any pending nomination. A node restarting after a Lose
// crash calls this so it re-observes a full silence window before
// suspecting anyone, instead of acting on a timestamp from before its
// own outage.
func (f *foState) reset() {
	f.mon = false
	f.dead = nil
	f.nominated = false
}

// note records a nomination and grants the nominee one fresh suspicion
// window before escalation.
func (f *foState) note(nominee proto.NodeID, rnd int64, now time.Duration) {
	f.nominated, f.nominee, f.nomRnd = true, nominee, rnd
	f.last = now
}

// armDetector starts the periodic failure-detector tick.
func (c *ringCore) armDetector() {
	c.fo.tickFn = c.failoverTick
	proto.AfterFree(c.env, c.failover.Heartbeat, c.fo.tickFn)
}

// receiveShared handles the failover and restart messages, which both
// variants exchange, for the agents' Receive.
func (c *ringCore) receiveShared(from proto.NodeID, m proto.Message) {
	switch msg := m.(type) {
	case mHeartbeat:
		// Pure liveness beacon; heard already recorded it.
	case mTakeOver:
		c.onTakeOver(msg)
	case mRingStateReq:
		c.env.Send(from, mRingState{ringAt{c.rnd, c.ring, c.nacc}})
	case mRingState:
		// The layout a live member reports after this node's restart. Any
		// reply clears needRing — even "your layout is current" arms the
		// detector — but only a layout at or above the local round is
		// adopted (a reply from a staler node must not rewind the ring).
		c.fo.needRing = false
		c.announced(msg.ringAt)
	}
}

// heard records a sign of life: any traffic from the monitored ring
// predecessor counts (one predictable branch when failover is disabled).
func (c *ringCore) heard(from proto.NodeID) {
	if c.fo.mon && from == c.fo.pred {
		c.fo.last = c.env.Now()
	}
}

// failoverTick is the periodic failure-detector beat: beacon the ring
// successor, check the predecessor's silence window. Every ring member
// participates (a U-Ring learner-segment member may be the one that
// detects a dead coordinator's silence); M-Ring spares and evicted
// ex-members keep ticking but stay passive while outside the ring.
func (c *ringCore) failoverTick() {
	if proto.EnvDown(c.env) || c.retired {
		// A crashed process runs no failure detector: drop the monitor aim
		// so the first post-restart tick re-observes a full silence window
		// instead of acting on a timestamp from before the outage. A
		// retired process must not beacon either — peers should treat the
		// amnesiac as dead and reconfigure the ring around it.
		c.fo.mon = false
	} else if i := c.ringIndex(); i >= 0 && len(c.ring) > 1 {
		n := len(c.ring)
		c.env.Send(c.ring[(i+1)%n], mHeartbeat{Rnd: c.rnd})
		if c.fo.needRing {
			// Freshly restarted: hold the detector until a live member
			// confirms the ring layout — suspicion computed from the stale
			// pre-crash ring would churn a ring that already moved on.
			c.fo.mon = false
			c.requestRingState()
		} else {
			pred := c.ring[(i-1+n)%n]
			if c.fo.observe(pred, c.env.Now(), c.failover.suspectAfter()) {
				c.suspectPred(pred)
			}
		}
	} else {
		c.fo.mon = false
	}
	proto.AfterFree(c.env, c.failover.Heartbeat, c.fo.tickFn)
}

// requestRingState asks one ring member for the current layout, rotating
// the target each tick so a dead first choice does not stall catch-up.
func (c *ringCore) requestRingState() {
	n := len(c.ring)
	i := c.ringIndex()
	if n <= 1 || i < 0 {
		c.fo.needRing = false
		return
	}
	off := 1 + c.fo.askIdx%(n-1)
	c.fo.askIdx++
	c.env.Send(c.ring[(i+off)%n], mRingStateReq{})
}

// announced adopts a ring layout a live member reported or multicast,
// unless it is older than the local round.
func (c *ringCore) announced(l ringAt) {
	if len(l.Ring) == 0 || l.Rnd < c.rnd {
		return
	}
	c.adoptRing(l)
	c.lay.ringAdopted(l.Rnd)
}

// suspectPred declares the ring predecessor dead, lays out a ring of the
// survivors and nominates the process at its coordinator position (the
// highest-id live acceptor). If a prior nomination produced no round
// progress, foState.suspect already escalated past that nominee.
func (c *ringCore) suspectPred(pred proto.NodeID) {
	c.fo.suspect(pred, c.rnd)
	ring, nacc := c.electRing()
	if len(ring) == 0 {
		return
	}
	nom := c.coordOf(ring)
	c.fo.note(nom, c.rnd, c.env.Now())
	if nom == c.env.ID() {
		c.takeOver(ring, nacc)
		return
	}
	c.env.Send(nom, mTakeOver{ringAt{c.rnd, ring, nacc}})
}

// electRing lays out the post-failure ring and returns it with its
// acceptor-segment length: the highest-id surviving acceptor moves to the
// coordinator position and the other survivors keep their order — M-Ring
// refills the ring from live spares up to its configured size; U-Ring
// keeps the shrunk acceptor segment consecutive behind the coordinator,
// non-acceptor members following. Deterministic in the dead set, so
// concurrent suspicions converge on one nominee.
func (c *ringCore) electRing() ([]proto.NodeID, int) {
	var accs, rest []proto.NodeID
	for i, id := range c.ring {
		if c.fo.dead[id] {
			continue
		}
		if i < c.nacc {
			accs = append(accs, id)
		} else {
			rest = append(rest, id)
		}
	}
	if len(accs) == 0 {
		return nil, 0
	}
	nom := slices.Max(accs)
	out := make([]proto.NodeID, 0, len(accs)+len(rest)+len(c.spares))
	if !c.coordLast {
		out = append(out, nom)
	}
	for _, id := range accs {
		if id != nom {
			out = append(out, id)
		}
	}
	if !c.coordLast {
		return append(out, rest...), len(accs)
	}
	for _, id := range c.spares {
		if len(out)+1 >= c.ringSize {
			break
		}
		if !c.fo.dead[id] && !slices.Contains(c.ring, id) && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	out = append(out, nom)
	return out, len(out)
}

// takeOver promotes this agent to coordinator over a reconfigured ring
// (this node must sit at its coordinator position). The layout is
// announced to the other members once Phase 1 completes.
func (c *ringCore) takeOver(ring []proto.NodeID, nacc int) {
	c.fo.tookOver = true
	c.becomeCoordinator((c.rnd>>10)+1, ring, nacc)
}

func (c *ringCore) onTakeOver(m mTakeOver) {
	if !c.failover.Enabled() || c.retired || len(m.Ring) == 0 || c.coordOf(m.Ring) != c.env.ID() {
		return
	}
	if c.isCoord && slices.Equal(c.ring, m.Ring) {
		return // already coordinating (or running Phase 1 over) this layout
	}
	if m.Rnd > c.rnd {
		c.rnd = m.Rnd
	}
	c.takeOver(m.Ring, m.NAcc)
}
