package multiring

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// rig builds a two-ring deployment:
//
//	ring 0: acceptors {0,1} (coordinator 1), multicast group 100
//	ring 1: acceptors {2,3} (coordinator 3), multicast group 101
//	node 10: learner of both rings (merger), node 11: learner of ring 0 only
//	node 20: proposer for both rings
type rig struct {
	l      *lan.LAN
	nodes  map[proto.NodeID]*Node
	merged []core.ValueID // deliveries at node 10
	single []core.ValueID // deliveries at node 11
	m10    *Merger
	m11    *Merger
}

// newRig starts a rig; sched, if non-nil, is installed before Start.
func newRig(seed int64, lambda float64, delta time.Duration, m int64, sched *fault.Schedule) *rig {
	r := &rig{l: lan.New(lan.DefaultConfig(), seed), nodes: make(map[proto.NodeID]*Node)}

	cfg0 := ringpaxos.MConfig{
		Ring:     []proto.NodeID{0, 1},
		Learners: []proto.NodeID{10, 11},
		Group:    100,
	}
	cfg1 := ringpaxos.MConfig{
		Ring:     []proto.NodeID{2, 3},
		Learners: []proto.NodeID{10},
		Group:    101,
	}

	for _, id := range []proto.NodeID{0, 1, 2, 3, 10, 11, 20} {
		r.nodes[id] = NewNode()
	}
	// Ring 0 acceptors.
	r.nodes[0].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[1].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	// Ring 1 acceptors.
	r.nodes[2].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	r.nodes[3].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	// Pacers on the two coordinators.
	if lambda > 0 {
		r.nodes[1].AddPacer(&Pacer{Agent: r.nodes[1].Agent(0), Lambda: lambda, Delta: delta})
		r.nodes[3].AddPacer(&Pacer{Agent: r.nodes[3].Agent(1), Lambda: lambda, Delta: delta})
	}
	// Learner 10 subscribes to both rings and merges.
	r.nodes[10].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[10].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	r.m10 = NewMerger([]int{0, 1}, m)
	r.m10.Deliver = func(_ int64, v core.Value) { r.merged = append(r.merged, v.ID) }
	r.nodes[10].SetMerger(r.m10)
	// Learner 11 subscribes to ring 0 only.
	r.nodes[11].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.m11 = NewMerger([]int{0}, m)
	r.m11.Deliver = func(_ int64, v core.Value) { r.single = append(r.single, v.ID) }
	r.nodes[11].SetMerger(r.m11)
	// Proposer node knows both rings.
	r.nodes[20].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[20].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})

	for id, n := range r.nodes {
		r.l.AddNode(id, n)
	}
	// Multicast membership: ring acceptors + learners per group.
	for _, id := range []proto.NodeID{0, 1, 10, 11} {
		r.l.Subscribe(100, id)
	}
	for _, id := range []proto.NodeID{2, 3, 10} {
		r.l.Subscribe(101, id)
	}
	r.l.InstallFaults(sched)
	r.l.Start()
	return r
}

// Ring-0 values get even ids, ring-1 values odd ids.
func (r *rig) propose(ring int, id int64, bytes int) {
	r.nodes[20].Agent(ring).Propose(core.Value{ID: core.ValueID(id), Bytes: bytes})
}

func TestMultiRingPartialOrder(t *testing.T) {
	r := newRig(1, 2000, time.Millisecond, 1, nil)
	for i := 0; i < 60; i++ {
		r.propose(0, int64(2*i+2), 512)
		r.propose(1, int64(2*i+1), 512)
	}
	r.l.Run(3 * time.Second)
	if len(r.merged) != 120 {
		t.Fatalf("merged learner delivered %d of 120", len(r.merged))
	}
	if len(r.single) != 60 {
		t.Fatalf("single-ring learner delivered %d of 60", len(r.single))
	}
	// Uniform partial order: the merged learner's ring-0 subsequence must
	// equal the single-ring learner's sequence.
	var ring0 []core.ValueID
	for _, v := range r.merged {
		if int64(v)%2 == 0 {
			ring0 = append(ring0, v)
		}
	}
	if len(ring0) != len(r.single) {
		t.Fatalf("ring-0 subsequence %d vs %d", len(ring0), len(r.single))
	}
	for i := range ring0 {
		if ring0[i] != r.single[i] {
			t.Fatalf("ring-0 order diverges at %d: %d vs %d", i, ring0[i], r.single[i])
		}
	}
}

func TestMultiRingMergeDeterminism(t *testing.T) {
	run := func() []core.ValueID {
		r := newRig(42, 2000, time.Millisecond, 1, nil)
		for i := 0; i < 40; i++ {
			r.propose(0, int64(2*i+2), 512)
			r.propose(1, int64(2*i+1), 512)
		}
		r.l.Run(3 * time.Second)
		return r.merged
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic merge lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merge diverges at %d", i)
		}
	}
}

func TestMultiRingSkipsUnblockIdleRing(t *testing.T) {
	// Only ring 0 carries traffic. Without skips the merged learner would
	// block forever waiting for ring 1; the pacer's skip instances let it
	// deliver everything.
	r := newRig(2, 4000, time.Millisecond, 1, nil)
	for i := 0; i < 80; i++ {
		r.propose(0, int64(i+1), 512)
	}
	r.l.Run(3 * time.Second)
	if len(r.merged) != 80 {
		t.Fatalf("merged learner delivered %d of 80 with an idle ring", len(r.merged))
	}
}

func TestMultiRingNoSkipsBlocksMergedLearner(t *testing.T) {
	// Control for the test above: λ=0 disables pacing, so the merged
	// learner must stall while the single-ring learner proceeds.
	r := newRig(3, 0, 0, 1, nil)
	for i := 0; i < 50; i++ {
		r.propose(0, int64(i+1), 512)
	}
	r.l.Run(2 * time.Second)
	// At most one consensus instance (one batch of up to 16 values) can
	// slip through before the merge blocks on the silent ring.
	if len(r.merged) > 16 {
		t.Fatalf("merged learner delivered %d values despite a silent ring", len(r.merged))
	}
	if len(r.single) != 50 {
		t.Fatalf("single-ring learner delivered %d of 50", len(r.single))
	}
}

func TestMultiRingLargerM(t *testing.T) {
	// M=10: merge still delivers everything, in deterministic order.
	r := newRig(4, 3000, time.Millisecond, 10, nil)
	for i := 0; i < 60; i++ {
		r.propose(0, int64(2*i+2), 512)
		r.propose(1, int64(2*i+1), 512)
	}
	r.l.Run(3 * time.Second)
	if len(r.merged) != 120 {
		t.Fatalf("M=10 merge delivered %d of 120", len(r.merged))
	}
}

func TestMultiRingCoordinatorFailureAndRecovery(t *testing.T) {
	r := newRig(5, 3000, time.Millisecond, 1, nil)
	stop := false
	n := 0
	env := r.l.Node(20)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		n += 2
		r.propose(0, int64(n), 512)
		r.propose(1, int64(n+1), 512)
		env.After(time.Millisecond, pump)
	}
	pump()
	r.l.Run(500 * time.Millisecond)
	preCrash := len(r.merged)
	if preCrash == 0 {
		t.Fatal("nothing delivered before crash")
	}
	// Crash ring 1's coordinator: the merged learner stalls even though
	// ring 0 keeps deciding (Fig 5.11).
	r.l.Node(3).SetDown(true)
	r.l.Run(300 * time.Millisecond)
	during := len(r.merged)
	if during-preCrash > r.m10.Buffered() {
		t.Logf("deliveries during outage: %d", during-preCrash)
	}
	// Recover; the coordinator's timers resume, skips catch up, and the
	// buffered traffic flushes.
	r.l.Node(3).SetDown(false)
	r.l.Run(2 * time.Second)
	stop = true
	r.l.Run(3 * time.Second)
	post := len(r.merged)
	if post <= during {
		t.Fatalf("no recovery after coordinator restart: %d -> %d", during, post)
	}
	// Ring-0 subsequence must still match the single-ring learner's prefix.
	var ring0 []core.ValueID
	for _, v := range r.merged {
		if int64(v)%2 == 0 {
			ring0 = append(ring0, v)
		}
	}
	limit := len(ring0)
	if len(r.single) < limit {
		limit = len(r.single)
	}
	for i := 0; i < limit; i++ {
		if ring0[i] != r.single[i] {
			t.Fatalf("ring-0 order diverges at %d after recovery", i)
		}
	}
}

// TestNodeLoseVolatileReachesRingAgents Lose-crashes ring 1's coordinator
// (node 3) at the instant it stages values for proposal and restarts it
// before the batch timer would cut them. The crash destroys the staged
// values — proto.VolatileLoser must reach the ring agent through the
// Node — so they are never ordered, while values proposed after the
// restart still are.
func TestNodeLoseVolatileReachesRingAgents(t *testing.T) {
	const crashAt = 100 * time.Millisecond
	var r *rig
	stage := func() {
		for i := int64(0); i < 5; i++ {
			r.nodes[3].Agent(1).Propose(core.Value{ID: core.ValueID(1001 + 2*i), Bytes: 512})
		}
	}
	r = newRig(7, 2000, time.Millisecond, 1, fault.New(7).
		Call(crashAt, 3, stage).
		CrashFor(crashAt, 200*time.Microsecond, 3, fault.Lose))
	r.l.Run(crashAt + 50*time.Millisecond)
	for i := int64(0); i < 5; i++ {
		r.propose(1, 2001+2*i, 512)
	}
	r.l.Run(time.Second)

	var staged, after int
	for _, v := range r.merged {
		switch {
		case v > 1000 && v < 2000:
			staged++
		case v > 2000:
			after++
		}
	}
	if staged != 0 {
		t.Fatalf("%d values staged at the coordinator survived its Lose crash", staged)
	}
	if after != 5 {
		t.Fatalf("ring 1 delivered %d of 5 values proposed after the restart", after)
	}
}

func TestSkipBatchRoundTrip(t *testing.T) {
	b := SkipBatch(17)
	n, ok := skipCount(b)
	if !ok || n != 17 {
		t.Fatalf("skipCount(SkipBatch(17)) = %d, %v", n, ok)
	}
	n, ok = skipCount(core.Batch{Vals: []core.Value{{ID: 1, Bytes: 10}}})
	if ok || n != 1 {
		t.Fatalf("normal batch misdetected as skip: %d, %v", n, ok)
	}
}

// failoverRig is newRig with failover enabled on ring 0, standby pacers
// on every ring-0 acceptor (inert until one of them is coordinator), the
// proposer subscribed to both groups so it hears ring changes, and a
// fault schedule installed before Start.
func failoverRig(seed int64, sched *fault.Schedule) *rig {
	r := &rig{l: lan.New(lan.DefaultConfig(), seed), nodes: make(map[proto.NodeID]*Node)}
	fo := ringpaxos.Failover{Heartbeat: 2 * time.Millisecond, Suspect: 6 * time.Millisecond}
	cfg0 := ringpaxos.MConfig{
		Ring:     []proto.NodeID{0, 1},
		Learners: []proto.NodeID{10, 11},
		Group:    100,
		Failover: fo,
	}
	cfg1 := ringpaxos.MConfig{
		Ring:     []proto.NodeID{2, 3},
		Learners: []proto.NodeID{10},
		Group:    101,
		Failover: fo,
	}
	for _, id := range []proto.NodeID{0, 1, 2, 3, 10, 11, 20} {
		r.nodes[id] = NewNode()
	}
	r.nodes[0].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[1].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[2].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	r.nodes[3].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	lambda, delta := 2000.0, time.Millisecond
	r.nodes[0].AddPacer(&Pacer{Agent: r.nodes[0].Agent(0), Lambda: lambda, Delta: delta})
	r.nodes[1].AddPacer(&Pacer{Agent: r.nodes[1].Agent(0), Lambda: lambda, Delta: delta})
	r.nodes[3].AddPacer(&Pacer{Agent: r.nodes[3].Agent(1), Lambda: lambda, Delta: delta})
	r.nodes[10].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[10].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	r.m10 = NewMerger([]int{0, 1}, 1)
	r.m10.Deliver = func(_ int64, v core.Value) { r.merged = append(r.merged, v.ID) }
	r.nodes[10].SetMerger(r.m10)
	r.nodes[11].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.m11 = NewMerger([]int{0}, 1)
	r.m11.Deliver = func(_ int64, v core.Value) { r.single = append(r.single, v.ID) }
	r.nodes[11].SetMerger(r.m11)
	r.nodes[20].AddRing(0, &ringpaxos.MAgent{Cfg: cfg0})
	r.nodes[20].AddRing(1, &ringpaxos.MAgent{Cfg: cfg1})
	for id, n := range r.nodes {
		r.l.AddNode(id, n)
	}
	for _, id := range []proto.NodeID{0, 1, 10, 11, 20} {
		r.l.Subscribe(100, id)
	}
	for _, id := range []proto.NodeID{2, 3, 10, 20} {
		r.l.Subscribe(101, id)
	}
	r.l.InstallFaults(sched)
	r.l.Start()
	return r
}

// TestMultiRingIndependentFailover kills ring 0's coordinator (node 1)
// permanently. Ring 0 must elect node 0 — whose standby pacer comes
// alive — while ring 1 is untouched, and the merged learner must resume
// delivering from both rings after the election.
func TestMultiRingIndependentFailover(t *testing.T) {
	sched := fault.New(1).Crash(100*time.Millisecond, 1, fault.Lose)
	r := failoverRig(6, sched)
	for i := 0; i < 30; i++ {
		r.propose(0, int64(2*i+2), 512)
		r.propose(1, int64(2*i+1), 512)
	}
	r.l.Run(time.Second)
	if !r.nodes[0].Agent(0).IsCoordinator() {
		t.Fatal("ring-0 survivor (node 0) did not take over")
	}
	if !r.nodes[3].Agent(1).IsCoordinator() || r.nodes[2].Agent(1).IsCoordinator() {
		t.Fatal("ring 1 coordinatorship disturbed by ring 0's failover")
	}
	for i := 30; i < 60; i++ {
		r.propose(0, int64(2*i+2), 512)
		r.propose(1, int64(2*i+1), 512)
	}
	r.l.Run(2 * time.Second)
	if len(r.merged) != 120 {
		t.Fatalf("merged learner delivered %d of 120 across the failover", len(r.merged))
	}
	if len(r.single) != 60 {
		t.Fatalf("single-ring learner delivered %d of 60 across the failover", len(r.single))
	}
	var ring0 []core.ValueID
	for _, v := range r.merged {
		if int64(v)%2 == 0 {
			ring0 = append(ring0, v)
		}
	}
	for i := range ring0 {
		if ring0[i] != r.single[i] {
			t.Fatalf("ring-0 order diverges at %d after failover", i)
		}
	}
}
