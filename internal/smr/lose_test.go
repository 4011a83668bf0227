package smr

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// TestReplicaLoseVolatileReachesAgent Lose-crashes a replica whose agent
// is its ring's coordinator at the instant five inserts are staged there,
// and restarts it before the batch timer would cut them. The crash
// destroys the staged values — proto.VolatileLoser must reach the agent
// through the Replica, which is the node's handler — so no replica ever
// executes them, while inserts proposed after the restart still execute.
func TestReplicaLoseVolatileReachesAgent(t *testing.T) {
	const crashAt = 100 * time.Millisecond
	mcfg := ringpaxos.MConfig{Ring: []proto.NodeID{1000, 2000}, Learners: []proto.NodeID{2000, 2001}, Group: 500}
	var reps []*Replica
	propose := func(key int64) {
		reps[0].Agent.Propose(core.Value{ID: core.ValueID(key), Bytes: RequestBytes,
			Payload: []Command{{Op: OpInsert, Key: key, Value: 1}}})
	}
	l := lan.New(lan.DefaultConfig(), 7)
	l.AddNode(1000, &ringpaxos.MAgent{Cfg: mcfg})
	l.Subscribe(mcfg.Group, 1000)
	for i, id := range mcfg.Learners {
		rep := &Replica{Agent: &ringpaxos.MAgent{Cfg: mcfg}, Service: NewBTreeService(0, 100), Index: i, GroupSize: 2}
		l.AddNode(id, rep)
		l.Subscribe(mcfg.Group, id)
		reps = append(reps, rep)
	}
	l.InstallFaults(fault.New(7).
		Call(crashAt, 2000, func() {
			for k := int64(1000); k < 1005; k++ {
				propose(k)
			}
		}).
		CrashFor(crashAt, 200*time.Microsecond, 2000, fault.Lose))
	l.Start()
	l.Run(crashAt + 50*time.Millisecond)
	for k := int64(2000); k < 2005; k++ {
		propose(k)
	}
	l.Run(time.Second)

	for i, rep := range reps {
		tree := &rep.Service.(*BTreeService).Tree
		for k := int64(1000); k < 1005; k++ {
			if _, ok := tree.Get(k); ok {
				t.Fatalf("replica %d executed insert %d, staged at its coordinator when it Lose-crashed", i, k)
			}
		}
		for k := int64(2000); k < 2005; k++ {
			if _, ok := tree.Get(k); !ok {
				t.Fatalf("replica %d never executed insert %d, proposed after the restart", i, k)
			}
		}
	}
}
