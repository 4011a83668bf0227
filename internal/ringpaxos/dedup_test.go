package ringpaxos

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
)

// ackTap stands in for a client session: it counts MsgClientAck
// deliveries per sequence number on the client's node.
type ackTap struct{ acks map[int64]int }

func (t *ackTap) Start(proto.Env) {}
func (t *ackTap) Receive(_ proto.NodeID, m proto.Message) {
	if a, ok := m.(*proto.MsgClientAck); ok {
		t.acks[a.Seq]++
	}
}

func countID(deliv []core.ValueID, id core.ValueID) int {
	n := 0
	for _, v := range deliv {
		if v == id {
			n++
		}
	}
	return n
}

// TestMRingDuplicateDecisionSuppressed double-proposes the same stamped
// value — exactly what a client session's retry submits — so it gets
// decided in TWO consensus instances, and checks the learners' replicated
// dedup table delivers it once, suppresses the second decision on every
// learner, and still acks BOTH decisions (the duplicate from the table),
// so a retrying session always hears back.
func TestMRingDuplicateDecisionSuppressed(t *testing.T) {
	cfg := MConfig{Group: 1}
	cfg.Ring = []proto.NodeID{0, 1, 2}
	cfg.Learners = []proto.NodeID{100, 101}
	l := lan.New(lan.DefaultConfig(), 1)
	deliv := make(map[proto.NodeID][]core.ValueID)
	agents := make(map[proto.NodeID]*MAgent)
	for _, id := range []proto.NodeID{0, 1, 2, 100, 101} {
		id := id
		a := &MAgent{Cfg: cfg}
		a.Deliver = func(_ int64, v core.Value) {
			deliv[id] = append(deliv[id], v.ID)
		}
		agents[id] = a
		l.AddNode(id, a)
		l.Subscribe(1, id)
	}
	prop := &MAgent{Cfg: cfg}
	tap := &ackTap{acks: make(map[int64]int)}
	l.AddNode(200, proto.Multi(prop, tap))
	l.Start()

	retried := core.Value{ID: 1, Bytes: 512, Client: 200, Seq: 1}
	prop.Propose(retried)
	l.Run(100 * time.Millisecond) // first decision commits (200,1) everywhere
	prop.Propose(retried)         // the retry: same stamp, a second instance
	prop.Propose(core.Value{ID: 2, Bytes: 512, Client: 200, Seq: 2})
	l.Run(400 * time.Millisecond)

	for _, id := range cfg.Learners {
		if got := countID(deliv[id], 1); got != 1 {
			t.Fatalf("learner %d delivered retried value %d times, want 1 (%v)", id, got, deliv[id])
		}
		if got := countID(deliv[id], 2); got != 1 {
			t.Fatalf("learner %d delivered fresh value %d times, want 1 (%v)", id, got, deliv[id])
		}
		if agents[id].DupSuppressed != 1 {
			t.Fatalf("learner %d suppressed %d, want 1", id, agents[id].DupSuppressed)
		}
		if got := agents[id].dedup.Seq(200); got != 2 {
			t.Fatalf("learner %d dedup seq = %d, want 2", id, got)
		}
	}
	// Both decisions of seq 1 are acked by both learners — the second from
	// the table — while seq 2 is decided (and acked) once per learner.
	if tap.acks[1] != 4 || tap.acks[2] != 2 {
		t.Fatalf("acks = %v, want seq1:4 seq2:2", tap.acks)
	}
}

// TestURingDuplicateDecisionSuppressed is the U-Ring twin: the retry is
// proposed from a non-coordinator (forwarded along the ring), decided
// again, and suppressed by every process's delivery-side table.
func TestURingDuplicateDecisionSuppressed(t *testing.T) {
	cfg := UConfig{}
	const n = 3
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	l := lan.New(lan.DefaultConfig(), 1)
	deliv := make(map[proto.NodeID][]core.ValueID)
	tap := &ackTap{acks: make(map[int64]int)}
	var agents []*UAgent
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		a := &UAgent{Cfg: cfg}
		a.Deliver = func(_ int64, v core.Value) {
			deliv[id] = append(deliv[id], v.ID)
		}
		agents = append(agents, a)
		if i == n-1 { // the client lives on the last ring node
			l.AddNode(id, proto.Multi(a, tap))
		} else {
			l.AddNode(id, a)
		}
	}
	l.Start()

	client := int64(n - 1)
	retried := core.Value{ID: 1, Bytes: 512, Client: client, Seq: 1}
	agents[n-1].Propose(retried) // forwarded around the ring to node 0
	l.Run(100 * time.Millisecond)
	agents[n-1].Propose(retried) // the retry
	agents[n-1].Propose(core.Value{ID: 2, Bytes: 512, Client: client, Seq: 2})
	l.Run(400 * time.Millisecond)

	for i, a := range agents {
		if got := countID(deliv[proto.NodeID(i)], 1); got != 1 {
			t.Fatalf("node %d delivered retried value %d times, want 1 (%v)", i, got, deliv[proto.NodeID(i)])
		}
		if got := countID(deliv[proto.NodeID(i)], 2); got != 1 {
			t.Fatalf("node %d delivered fresh value %d times, want 1 (%v)", i, got, deliv[proto.NodeID(i)])
		}
		if a.DupSuppressed != 1 {
			t.Fatalf("node %d suppressed %d, want 1", i, a.DupSuppressed)
		}
		if got := a.dedup.Seq(client); got != 2 {
			t.Fatalf("node %d dedup seq = %d, want 2", i, got)
		}
	}
	// Every process is a learner: 3 acks per decision. Seq 1 is decided
	// twice (the second acked from the table), seq 2 once.
	if tap.acks[1] != 6 || tap.acks[2] != 3 {
		t.Fatalf("acks = %v, want seq1:6 seq2:3", tap.acks)
	}
}
