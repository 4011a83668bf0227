package repro

import (
	"time"

	"repro/internal/ringpaxos"
	"repro/internal/wal"
)

// ReplicatedLog is a convenience wrapper: a U-Ring Paxos ring over a
// realtime Cluster in which every node proposes and learns. It is the
// quickest way to embed a totally ordered, fault-tolerant log in an
// application (U-Ring Paxos because plain sockets have no ip-multicast,
// §3.3.3).
type ReplicatedLog struct {
	agents map[NodeID]*URingAgent
	nodes  map[NodeID]*ClusterNode
}

// LogConfig configures a ReplicatedLog.
type LogConfig struct {
	// Nodes lists the ring members in ring order; all are learners.
	Nodes []NodeID
	// Deliver is invoked on each node, in the agreed total order.
	Deliver func(node NodeID, inst int64, v Value)
	// BatchDelay is an upper bound, not a cost every append pays: the ring
	// coordinator is self-clocked. A value that finds it idle (nothing
	// staged, no instance open) is proposed at once and commits in ring-hop
	// time; values that arrive while an instance is open are batched behind
	// it and leave when it is decided, or when they fill a packet. The
	// delay only bounds the wait of a staged value when neither happens.
	// Zero resolves to 500 µs.
	BatchDelay time.Duration
	// GCInterval is the learner-version garbage collection period
	// (§3.3.7): every node periodically reports its applied instance and
	// vote-log entries below every node's report are trimmed, so a
	// long-lived log holds a bounded window of instances instead of
	// leaking one vote per append forever. Zero resolves to the U-Ring
	// default (garbage collection is ON by default); a negative value
	// disables it — the pre-plumbing behavior, kept only as an explicit
	// escape hatch.
	GCInterval time.Duration
	// WALDir, when non-empty, turns on write-ahead logging
	// (ringpaxos.DurWAL): every acceptor appends its promises and votes
	// to an in-memory wal.Log before acting on them, and the cluster
	// backs those durable writes with real O_SYNC files under this
	// directory (one node-<id>.wal per ring member) so each append pays
	// true fsync latency. Empty keeps the legacy in-memory behavior.
	WALDir string
}

// NewReplicatedLog adds the ring to the cluster. Call before
// Cluster.Start. With WALDir set it also enables the cluster's
// file-backed durable writes; an unusable directory surfaces through
// Cluster.WALError after the first append.
func NewReplicatedLog(c *Cluster, cfg LogConfig) *ReplicatedLog {
	l := &ReplicatedLog{agents: make(map[NodeID]*URingAgent), nodes: make(map[NodeID]*ClusterNode)}
	ucfg := ringpaxos.UConfig{
		Ring:       cfg.Nodes,
		Learners:   cfg.Nodes,
		BatchDelay: cfg.BatchDelay,
		GCInterval: cfg.GCInterval,
	}
	if cfg.WALDir != "" {
		ucfg.Durability = ringpaxos.DurWAL
		if err := c.EnableWAL(cfg.WALDir); err != nil {
			c.noteWALErr(err)
		}
	}
	for _, id := range cfg.Nodes {
		id := id
		a := &URingAgent{Cfg: ucfg}
		if cfg.WALDir != "" {
			a.Log = &wal.Log{}
		}
		if cfg.Deliver != nil {
			a.Deliver = func(inst int64, v Value) { cfg.Deliver(id, inst, v) }
		}
		l.agents[id] = a
		l.nodes[id] = c.AddNode(id, a)
	}
	return l
}

// Propose submits v from the given ring node.
func (l *ReplicatedLog) Propose(from NodeID, v Value) {
	if a, ok := l.agents[from]; ok {
		l.nodes[from].enqueue(func() { a.Propose(v) })
	}
}

// Agent exposes a node's underlying U-Ring Paxos agent.
func (l *ReplicatedLog) Agent(id NodeID) *URingAgent { return l.agents[id] }
