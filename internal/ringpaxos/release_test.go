package ringpaxos

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// poisoned marks a multicast its last receiver released. The release-safety
// test retires messages this way instead of recycling them, so a receiver
// the count left out reads the mark instead of a reused message.
const poisoned = -1 << 40

// releaseGuard sits in front of an agent and counts deliveries of a
// message its last receiver already released. A poisoned message is
// dropped, not handed on: the agent would read garbage.
type releaseGuard struct {
	proto.Handler
	bad *atomic.Int64
}

func (g releaseGuard) Receive(from proto.NodeID, m proto.Message) {
	switch msg := m.(type) {
	case *mPhase2A:
		if msg.Inst == poisoned {
			g.bad.Add(1)
			return
		}
	case *mDecision:
		if msg.Insts[0] == poisoned {
			g.bad.Add(1)
			return
		}
	}
	g.Handler.Receive(from, m)
}

// proposeEvery proposes value(i) for i < n through a, one every gap of
// simulated time.
func proposeEvery(a *MAgent, n int, gap time.Duration, value func(i int) core.Value) proto.Handler {
	return &proto.HandlerFunc{OnStart: func(env proto.Env) {
		i := 0
		var tick func()
		tick = func() {
			if i == n {
				return
			}
			a.Propose(value(i))
			i++
			env.After(gap, tick)
		}
		env.After(gap, tick)
	}}
}

// TestMulticastReleaseSafety runs M-Ring with every final release of a
// Phase 2A or decision poisoning the message instead of recycling it, and
// fails if any receiver is handed a poisoned message — i.e. if a receiver
// count ever undercounts. It covers the cases where the count and the
// deliveries differ: partitioned mode (acceptors receive one copy per
// partition group), a learner that is down while multicasts arrive
// (overcount: those messages fall to the garbage collector), a duplicating
// network (never armed) and a partitioned run, where receivers release on
// different logical processes' goroutines (run it under -race).
func TestMulticastReleaseSafety(t *testing.T) {
	const (
		nValues = 400
		size    = 1 << 10
	)
	parts := map[proto.NodeID]uint64{100: 1 << 0, 101: 1 << 1, 102: 1<<0 | 1<<1, 103: 1<<0 | 1<<1}
	cases := []struct {
		name        string
		partitioned bool
		sched       *fault.Schedule
		par         int
		armed       bool // whether any message reaches its final release
	}{
		{name: "partitioned", partitioned: true, armed: true},
		{name: "down-learner", sched: fault.New(1).CrashFor(20*time.Millisecond, 40*time.Millisecond, 101, fault.Freeze), armed: true},
		{name: "duplicating-network", sched: fault.New(1).WithNet(fault.Net{DupRate: 0.2})},
		{name: "par2", par: 2, armed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var released, bad atomic.Int64
			phase2APool.Poison = func(m *mPhase2A) { m.Inst = poisoned; released.Add(1) }
			decisionPool.Poison = func(m *mDecision) { m.Insts[0] = poisoned; released.Add(1) }
			t.Cleanup(func() { phase2APool.Poison, decisionPool.Poison = nil, nil })

			cfg := MConfig{Ring: []proto.NodeID{0, 1, 2}, Group: 1, BatchBytes: size}
			learners := []proto.NodeID{100, 101, 102, 103}
			cfg.Learners = learners
			if tc.partitioned {
				cfg.PartGroups = []proto.GroupID{10, 11}
				cfg.LearnerParts = parts
			}
			// Values cycle through partition masks 1, 2 and 3 (both
			// partitions, so its 2A goes to both groups).
			mask := func(i int) uint64 {
				if !tc.partitioned {
					return 0
				}
				return uint64(i%3 + 1)
			}
			l := lan.New(lan.DefaultConfig(), 1)
			delivered := make([]int, len(learners))
			for _, id := range append(append([]proto.NodeID{}, cfg.Ring...), learners...) {
				a := &MAgent{Cfg: cfg}
				if id >= 100 {
					a.Deliver = func(int64, core.Value) { delivered[id-100]++ }
				}
				l.AddNode(id, releaseGuard{a, &bad})
				l.Subscribe(cfg.Group, id)
				for p, g := range cfg.PartGroups {
					if id < 100 || parts[id]&(1<<p) != 0 {
						l.Subscribe(g, id)
					}
				}
			}
			prop := &MAgent{Cfg: cfg}
			l.AddNode(200, proto.Multi(prop, proposeEvery(prop, nValues, 100*time.Microsecond, func(i int) core.Value {
				return core.Value{ID: core.ValueID(i + 1), Bytes: size, PartMask: mask(i)}
			})))
			ringLP := func(id proto.NodeID) int { // the ring forms LP 1
				if id < 100 {
					return 1
				}
				return 0
			}
			if tc.par > 1 && !l.Partition(tc.par, ringLP) {
				t.Fatal("partitioning declined")
			}
			l.InstallFaults(tc.sched)
			l.Start()
			l.Run(time.Second)

			if n := bad.Load(); n != 0 {
				t.Fatalf("%d deliveries of a message its last receiver had already released", n)
			}
			if got := released.Load(); tc.armed != (got > 0) {
				t.Fatalf("%d messages reached their final release, want armed=%v", got, tc.armed)
			}
			for i, id := range learners {
				want := nValues
				if tc.partitioned {
					want = 0
					for v := 0; v < nValues; v++ {
						if mask(v)&parts[id] != 0 {
							want++
						}
					}
				}
				if delivered[i] != want {
					t.Fatalf("learner %d delivered %d values, want %d", id, delivered[i], want)
				}
			}
		})
	}
}
