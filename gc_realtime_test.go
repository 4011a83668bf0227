package repro

import (
	"testing"
	"time"
)

// TestRealtimeLogGCBoundsVoteLogSpan covers the realtime garbage
// collection end to end: a default ReplicatedLog under sustained appends
// keeps its live vote-log span bounded. Without GC every agent retains at
// least one record per instance, so the span summed over the three agents
// would be at least three times the instances committed; the assertion
// allows a third of one agent's worth. Wall-clock timing is noisy, so the
// bound is relative to the run, not an absolute count. U-Ring's GC on/off
// equivalence is covered deterministically in internal/ringpaxos.
func TestRealtimeLogGCBoundsVoteLogSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~1s of wall-clock cluster time; timing-sensitive under -short CI contention")
	}
	c := NewCluster(7)
	// Written by node 1's loop only; read after Stop.
	var instances int64
	log := NewReplicatedLog(c, LogConfig{
		Nodes: []NodeID{1, 2, 3},
		Deliver: func(node NodeID, inst int64, _ Value) {
			if node == 1 && inst >= instances {
				instances = inst + 1
			}
		},
	})
	c.Start()
	deadline := time.Now().Add(700 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		log.Propose(NodeID(i%3+1), Value{ID: ValueID(i + 1), Bytes: 64})
		time.Sleep(time.Millisecond)
	}
	// Let in-flight instances decide and a final few GC rounds trim
	// behind them before the snapshot.
	time.Sleep(200 * time.Millisecond)
	c.Stop()
	span := 0
	for _, id := range []NodeID{1, 2, 3} {
		span += log.Agent(id).LiveLogLen()
	}
	t.Logf("live span %d records across 3 agents after %d instances", span, instances)
	if instances < 60 {
		t.Fatalf("only %d instances committed: not enough to judge boundedness", instances)
	}
	if int64(span) > instances/3 {
		t.Fatalf("agents retain %d live log records after %d instances: vote logs are not bounded", span, instances)
	}
}
