package ringpaxos

// Crash+restart durability (Recoverable Ring Paxos, §3.5.5). Both Ring
// Paxos variants model three post-crash behaviors for a process whose
// volatile state a fault.Lose crash destroyed, selected by Durability on
// the config:
//
//   - DurModeled (zero value): the legacy semantics every pre-durability
//     deployment pins — promises and votes are silently retained across
//     the crash, as if stable storage existed but cost nothing (U-Ring's
//     reliable ring has no retransmission path, so losing them would stall
//     it forever). Keeps all historical goldens byte-identical.
//   - DurVolatile: honest loss. The process wipes its acceptor and
//     coordinator state and rejoins RETIRED from those roles: classic
//     Paxos forbids a process that lost its promise/vote state from ever
//     acting as an acceptor again (it may have promised a round it no
//     longer remembers), and an amnesiac coordinator cannot resume
//     coordinatorship it cannot prove. This is the mexos ceiling —
//     "does not store anything persistently, so cannot handle
//     crash+restart" — made explicit: without failover the ring stalls.
//   - DurWAL: real durability. Promises and votes were appended to the
//     agent's write-ahead log (Log field, wal.Log) before the agent acted
//     on them, each append charged to the ~270 Mbps disk model through
//     proto.Env.DiskWrite. On restart the agent wipes volatile state like
//     DurVolatile, then replays the log: promises restore the fencing
//     round, votes repopulate the store, and a logged coordinator
//     re-enters Phase 1 one round above its highest logged promise —
//     rejoining with full rights instead of retiring.
//
// Everything here is opt-in: with the zero Durability no WAL call, no
// snapshot message and no retirement branch ever runs.

import (
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wal"
)

// Durability selects what a fault.Lose crash does to this agent's
// protocol state. See the package comment above for the three levels.
type Durability uint8

const (
	// DurModeled retains votes across a Lose crash (legacy semantics).
	DurModeled Durability = iota
	// DurVolatile loses them honestly; the process retires from the
	// acceptor and coordinator roles.
	DurVolatile
	// DurWAL loses them, then recovers by replaying the write-ahead log.
	// A process configured DurWAL but deployed without a Log has nothing
	// to replay and is treated as DurVolatile.
	DurWAL
)

// LoseVolatile implements proto.VolatileLoser: a crash that destroys
// volatile state (fault.Lose) discards the staged client values awaiting
// proposal, then applies the configured Durability (above) to the
// protocol state. The learner's reorder buffer and delivery state are
// retained in every mode: they model the application's own durable state,
// whose catch-up story is the snapshot path, not the protocol WAL.
func (c *ringCore) LoseVolatile() {
	c.fo.reset()
	dur := c.durability
	if dur == DurWAL && c.Log == nil {
		// Nothing to replay: full rights would let an amnesiac vote again.
		dur = DurVolatile
	}
	c.batch.Reset()
	switch dur {
	case DurVolatile:
		c.wipe()
		c.retired = true
	case DurWAL:
		c.wipe()
		c.replayWAL()
	}
	if c.failover.Enabled() && !c.retired {
		// The ring may have been reconfigured during the outage: learn the
		// current layout from a live member before re-arming the detector
		// (failoverTick holds the monitor off while needRing is set).
		c.fo.needRing = true
	}
}

// wipe discards what an honest Lose crash destroys: the agent's stores,
// and the core's promises, coordinator role and GC bookkeeping.
func (c *ringCore) wipe() {
	c.lay.loseState()
	c.rnd, c.crnd = 0, 0
	c.isCoord, c.phase1Done = false, false
	c.promises = make(map[proto.NodeID]phase1B)
	c.gc = core.Trim{}
	c.fo.tookOver = false
}

// replayWAL rebuilds acceptor and coordinator state from the write-ahead
// log after the wipe. A process that finds itself at its ring's
// coordinator position re-enters Phase 1 one round above its highest
// logged promise: unlike a volatile process it can prove every promise it
// ever made, so resuming coordinatorship is safe (the classic Paxos
// stable-storage rule that forces DurVolatile to retire instead).
func (c *ringCore) replayWAL() {
	c.Log.Replay(func(r wal.Record) {
		switch r.Kind {
		case wal.KindSnapshot:
			c.gc.SetFloor(r.Inst)
		case wal.KindPromise:
			if r.Rnd > c.rnd {
				c.rnd = r.Rnd
			}
		default:
			if r.Inst >= c.gc.Floor() {
				c.lay.replayRecord(r)
			}
		}
	})
	if len(c.ring) > 0 && c.coordOf(c.ring) == c.env.ID() {
		// Still this ring's coordinator (as far as it knows — a stale
		// layout's Phase 1 is fenced by higher-round promises, and the
		// needRing catch-up corrects the layout).
		c.becomeCoordinator((c.rnd>>10)+1, c.ring, c.nacc)
	}
}

// walOn reports whether this agent appends to a write-ahead log.
func (c *ringCore) walOn() bool { return c.durability == DurWAL && c.Log != nil }

// syncVotes reports whether a vote must reach stable storage before the
// agent acts on it. When it is false callers proceed directly, so the
// closure persist needs is never built on the volatile fast path.
func (c *ringCore) syncVotes() bool { return c.diskSync || c.walOn() }

// persist makes vote record r stable, then runs done: appended to the
// write-ahead log, which retains it for crash replay, or — DiskSync
// alone — as a bare write of the vote (Recoverable Ring Paxos, §3.5.5).
func (c *ringCore) persist(r wal.Record, done func()) {
	if c.walOn() {
		c.Log.Append(c.env, r, done)
		return
	}
	c.env.DiskWrite(r.Val.Size()+headerBytes, done)
}

// promise sends a Phase 1B. The promise is binding only once durable:
// with a log it is persisted before the 1B leaves (Phase 1 is rare, so
// the closure is off the hot path).
func (c *ringCore) promise(to proto.NodeID, reply phase1B) {
	if c.walOn() {
		c.Log.Append(c.env, wal.Record{Kind: wal.KindPromise, Rnd: c.rnd},
			func() { c.env.Send(to, reply) })
		return
	}
	c.env.Send(to, reply)
}

// nopFn is the shared no-op completion for disk writes that gate nothing.
var nopFn = func() {}
