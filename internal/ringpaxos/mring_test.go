package ringpaxos

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// mDeploy wires an M-Ring Paxos group: ring acceptors 0..nRing-1 (node
// nRing-1 is the coordinator), learners 100+i, proposer 200.
type mDeploy struct {
	l        *lan.LAN
	agents   map[proto.NodeID]*MAgent
	prop     *MAgent
	learners []proto.NodeID
	deliv    map[proto.NodeID][]core.ValueID
	spec     map[proto.NodeID][]core.ValueID
}

// deployM starts an mDeploy on a network that drops datagrams with
// probability drop (fault.Net.DropRate).
func deployM(t testing.TB, cfg MConfig, nRing, nLearn int, drop float64, seed int64) *mDeploy {
	if t != nil {
		t.Helper()
	}
	d := &mDeploy{
		l:      lan.New(lan.DefaultConfig(), seed),
		agents: make(map[proto.NodeID]*MAgent),
		deliv:  make(map[proto.NodeID][]core.ValueID),
		spec:   make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < nRing; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	for i := 0; i < nLearn; i++ {
		d.learners = append(d.learners, proto.NodeID(100+i))
	}
	cfg.Learners = d.learners
	cfg.Group = 1
	add := func(id proto.NodeID) *MAgent {
		a := &MAgent{Cfg: cfg}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		a.SpecDeliver = func(inst int64, v core.Value) {
			d.spec[id] = append(d.spec[id], v.ID)
		}
		d.agents[id] = a
		d.l.AddNode(id, a)
		d.l.Subscribe(1, id)
		return a
	}
	for _, id := range cfg.Ring {
		add(id)
	}
	for _, id := range d.learners {
		add(id)
	}
	d.prop = &MAgent{Cfg: cfg}
	d.agents[200] = d.prop
	d.l.AddNode(200, d.prop)
	d.l.InstallFaults(fault.New(seed).WithNet(fault.Net{DropRate: drop}))
	d.l.Start()
	return d
}

func (d *mDeploy) propose(n, bytes int) {
	for i := 0; i < n; i++ {
		d.prop.Propose(core.Value{ID: core.ValueID(i + 1), Bytes: bytes})
	}
}

func checkTotalOrder(t *testing.T, deliv map[proto.NodeID][]core.ValueID, learners []proto.NodeID, want int) {
	t.Helper()
	var ref []core.ValueID
	for _, id := range learners {
		got := deliv[id]
		if want >= 0 && len(got) != want {
			t.Fatalf("learner %d delivered %d values, want %d", id, len(got), want)
		}
		seen := make(map[core.ValueID]bool)
		for _, v := range got {
			if seen[v] {
				t.Fatalf("learner %d delivered %d twice", id, v)
			}
			seen[v] = true
		}
		if ref == nil {
			ref = got
			continue
		}
		n := len(ref)
		if len(got) < n {
			n = len(got)
		}
		for i := 0; i < n; i++ {
			if got[i] != ref[i] {
				t.Fatalf("order diverges at %d: %d vs %d", i, got[i], ref[i])
			}
		}
	}
}

func TestMRingBasicAgreement(t *testing.T) {
	d := deployM(t, MConfig{}, 2, 3, 0, 1)
	d.propose(200, 512)
	d.l.Run(2 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 200)
}

func TestMRingLargerRing(t *testing.T) {
	d := deployM(t, MConfig{}, 5, 2, 0, 2)
	d.propose(100, 1024)
	d.l.Run(2 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 100)
}

func TestMRingUnderMessageLoss(t *testing.T) {
	d := deployM(t, MConfig{}, 3, 2, 0.05, 3) // 5% datagram loss
	d.propose(150, 512)
	d.l.Run(5 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 150)
}

func TestMRingHeavyLossStillConsistent(t *testing.T) {
	d := deployM(t, MConfig{}, 2, 2, 0.25, 4)
	d.propose(60, 512)
	d.l.Run(10 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 60)
}

func TestMRingDiskSync(t *testing.T) {
	d := deployM(t, MConfig{DiskSync: true}, 3, 2, 0, 1)
	d.propose(80, 512)
	d.l.Run(3 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 80)
	for i := 0; i < 3; i++ {
		if d.l.Node(proto.NodeID(i)).Stats().DiskWrites == 0 {
			t.Fatalf("ring acceptor %d wrote nothing in DiskSync mode", i)
		}
	}
}

func TestMRingSpeculativeDelivery(t *testing.T) {
	d := deployM(t, MConfig{Speculative: true}, 2, 2, 0, 1)
	d.propose(100, 512)
	d.l.Run(2 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 100)
	for _, id := range d.learners {
		sp := d.spec[id]
		fin := d.deliv[id]
		if len(sp) != len(fin) {
			t.Fatalf("learner %d: %d speculative vs %d final deliveries", id, len(sp), len(fin))
		}
		// In the failure-free run the speculative order must match the
		// final order (the coordinator's order is always confirmed,
		// §4.2.1).
		for i := range sp {
			if sp[i] != fin[i] {
				t.Fatalf("speculative order diverges from final at %d", i)
			}
		}
	}
}

func TestMRingFlowControlShrinksWindow(t *testing.T) {
	cfg := MConfig{
		ExecCost:      200 * time.Microsecond, // slow learner execution
		FlowThreshold: 8,
		Window:        64,
	}
	d := deployM(t, cfg, 2, 1, 0, 1)
	// Offer far more than the learner can process.
	stop := false
	n := 0
	env := d.l.Node(200)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for i := 0; i < 20; i++ {
			n++
			d.prop.Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(time.Millisecond, pump)
	}
	pump()
	d.l.Run(2 * time.Second)
	stop = true
	coord := d.agents[proto.NodeID(1)]
	if coord.Window() >= cfg.Window {
		t.Fatalf("window never shrank: %d", coord.Window())
	}
	// Deliveries must be totally ordered regardless.
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if len(d.deliv[d.learners[0]]) == 0 {
		t.Fatal("no deliveries under flow control")
	}
}

func TestMRingGarbageCollection(t *testing.T) {
	cfg := MConfig{GCInterval: 5 * time.Millisecond}
	d := deployM(t, cfg, 2, 2, 0, 1)
	d.propose(400, 1024)
	d.l.Run(2 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 400)
	for i := 0; i < 2; i++ {
		a := d.agents[proto.NodeID(i)]
		// ~400 KB proposed; after GC acceptors should hold far less.
		if a.StoreBytes() > 64<<10 {
			t.Fatalf("acceptor %d still stores %d bytes after GC", i, a.StoreBytes())
		}
	}
}

func TestMRingCoordinatorFailover(t *testing.T) {
	d := deployM(t, MConfig{}, 3, 2, 0, 1)
	d.propose(50, 512)
	d.l.Run(time.Second)
	if len(d.deliv[d.learners[0]]) != 50 {
		t.Fatalf("pre-crash deliveries: %d", len(d.deliv[d.learners[0]]))
	}
	// Crash the coordinator (node 2, last in ring). Acceptor 1 takes over
	// with a ring formed from the survivors; it becomes the last element.
	d.l.Node(2).SetDown(true)
	newRing := []proto.NodeID{0, 1}
	for _, a := range d.agents {
		a.Cfg.Ring = newRing
	}
	d.agents[1].takeOver(newRing, len(newRing))
	d.l.Run(200 * time.Millisecond)
	for i := 0; i < 30; i++ {
		d.agents[1].Propose(core.Value{ID: core.ValueID(1000 + i), Bytes: 512})
	}
	d.l.Run(3 * time.Second)
	checkTotalOrder(t, d.deliv, d.learners, 80)
}

func TestMRingPartitionedDelivery(t *testing.T) {
	// Two partitions; learner A subscribes to partition 0, learner B to
	// partition 1, learner C to both.
	cfg := MConfig{
		PartGroups: []proto.GroupID{10, 11},
		LearnerParts: map[proto.NodeID]uint64{
			100: 1 << 0,
			101: 1 << 1,
			102: 1<<0 | 1<<1,
		},
	}
	d := deployM(t, cfg, 2, 3, 0, 1)
	// Wire the partition groups: acceptors listen on all addresses
	// (§4.2.2); learners only on their partitions.
	for i := 0; i < 2; i++ {
		d.l.Subscribe(10, proto.NodeID(i))
		d.l.Subscribe(11, proto.NodeID(i))
	}
	d.l.Subscribe(10, 100)
	d.l.Subscribe(11, 101)
	d.l.Subscribe(10, 102)
	d.l.Subscribe(11, 102)
	// Interleave single-partition commands; ids encode the partition.
	for i := 0; i < 120; i++ {
		p := uint64(1) << (i % 2)
		d.prop.Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512, PartMask: p})
	}
	d.l.Run(3 * time.Second)
	a, b, c := d.deliv[100], d.deliv[101], d.deliv[102]
	if len(a) != 60 || len(b) != 60 || len(c) != 120 {
		t.Fatalf("deliveries: |A|=%d |B|=%d |C|=%d, want 60/60/120", len(a), len(b), len(c))
	}
	for _, v := range a {
		if (int64(v)-1)%2 != 0 {
			t.Fatalf("learner A delivered partition-1 value %d", v)
		}
	}
	for _, v := range b {
		if (int64(v)-1)%2 != 1 {
			t.Fatalf("learner B delivered partition-0 value %d", v)
		}
	}
	// C's order restricted to each partition must match A and B (uniform
	// partial order of atomic multicast).
	var cA, cB []core.ValueID
	for _, v := range c {
		if (int64(v)-1)%2 == 0 {
			cA = append(cA, v)
		} else {
			cB = append(cB, v)
		}
	}
	for i := range a {
		if a[i] != cA[i] {
			t.Fatalf("partition-0 order diverges between A and C at %d", i)
		}
	}
	for i := range b {
		if b[i] != cB[i] {
			t.Fatalf("partition-1 order diverges between B and C at %d", i)
		}
	}
}

// Property: random loss rates, sizes and counts never break total order or
// duplicate-freedom.
func TestQuickMRingTotalOrder(t *testing.T) {
	f := func(seed int64, nVals uint8, loss uint8) bool {
		n := int(nVals%50) + 1
		d := deployM(nil, MConfig{}, 2, 2, float64(loss%20)/100, seed)
		for i := 0; i < n; i++ {
			d.prop.Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 256})
		}
		d.l.Run(8 * time.Second)
		for _, id := range d.learners {
			if len(d.deliv[id]) != n {
				return false
			}
		}
		x, y := d.deliv[d.learners[0]], d.deliv[d.learners[1]]
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMRingThroughputNearWireSpeed(t *testing.T) {
	// §3.5.3: M-Ring Paxos reaches ~90% of a gigabit network.
	d := deployM(t, MConfig{}, 3, 5, 0, 1)
	stop := false
	n := 0
	env := d.l.Node(200)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		// 16 KB per 140 µs ≈ 935 Mbps offered (just under wire speed; the
		// paper's clients likewise throttle below saturation, §3.3.6).
		for i := 0; i < 2; i++ {
			n++
			d.prop.Propose(core.Value{ID: core.ValueID(n), Bytes: 8192})
		}
		env.After(140*time.Microsecond, pump)
	}
	pump()
	d.l.Run(time.Second)
	stop = true
	mbps := float64(d.agents[d.learners[0]].DeliveredBytes) * 8 / 1e6
	t.Logf("M-Ring Paxos delivery throughput: %.0f Mbps", mbps)
	if mbps < 600 {
		t.Fatalf("throughput %.0f Mbps too low for M-Ring Paxos", mbps)
	}
}
