package ringpaxos

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// uDeploy wires a U-Ring Paxos ring where every process is proposer,
// acceptor and learner (the configuration of §3.5.4).
type uDeploy struct {
	l      *lan.LAN
	agents []*UAgent
	deliv  map[proto.NodeID][]core.ValueID
}

// deployU starts a uDeploy of n processes on a network that drops
// datagrams with probability drop (fault.Net.DropRate).
func deployU(cfg UConfig, n int, drop float64, seed int64) *uDeploy {
	d := &uDeploy{
		l:     lan.New(lan.DefaultConfig(), seed),
		deliv: make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		a := &UAgent{Cfg: cfg}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents = append(d.agents, a)
		d.l.AddNode(id, a)
	}
	d.l.InstallFaults(fault.New(seed).WithNet(fault.Net{DropRate: drop}))
	d.l.Start()
	return d
}

func TestURingBasicAgreement(t *testing.T) {
	d := deployU(UConfig{}, 3, 0, 1)
	for i := 0; i < 150; i++ {
		d.agents[0].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	d.l.Run(2 * time.Second)
	var learners []proto.NodeID
	for i := 0; i < 3; i++ {
		learners = append(learners, proto.NodeID(i))
	}
	checkTotalOrder(t, d.deliv, learners, 150)
}

func TestURingProposalsFromEveryNode(t *testing.T) {
	// Proposals forwarded along the ring reach the coordinator and get
	// ordered, wherever they originate.
	d := deployU(UConfig{}, 5, 0, 2)
	id := 0
	for round := 0; round < 20; round++ {
		for p := 0; p < 5; p++ {
			id++
			d.agents[p].Propose(core.Value{ID: core.ValueID(id), Bytes: 512})
		}
	}
	d.l.Run(3 * time.Second)
	var learners []proto.NodeID
	for i := 0; i < 5; i++ {
		learners = append(learners, proto.NodeID(i))
	}
	checkTotalOrder(t, d.deliv, learners, 100)
}

func TestURingSubsetAcceptors(t *testing.T) {
	// 7-process ring with only 3 acceptors (positions 0..2): learners at
	// positions 3..6 still deliver everything in order.
	d := deployU(UConfig{NumAcceptors: 3}, 7, 0, 3)
	for i := 0; i < 100; i++ {
		d.agents[4].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	d.l.Run(3 * time.Second)
	var learners []proto.NodeID
	for i := 0; i < 7; i++ {
		learners = append(learners, proto.NodeID(i))
	}
	checkTotalOrder(t, d.deliv, learners, 100)
}

func TestURingNoDatagramLoss(t *testing.T) {
	// U-Ring Paxos uses only reliable channels; datagram loss rates must
	// not affect it at all.
	d := deployU(UConfig{}, 3, 0.5, 4)
	for i := 0; i < 50; i++ {
		d.agents[1].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	d.l.Run(2 * time.Second)
	var learners []proto.NodeID
	for i := 0; i < 3; i++ {
		learners = append(learners, proto.NodeID(i))
	}
	checkTotalOrder(t, d.deliv, learners, 50)
}

func TestURingDiskSync(t *testing.T) {
	d := deployU(UConfig{DiskSync: true}, 3, 0, 1)
	for i := 0; i < 60; i++ {
		d.agents[0].Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	d.l.Run(3 * time.Second)
	var learners []proto.NodeID
	for i := 0; i < 3; i++ {
		learners = append(learners, proto.NodeID(i))
	}
	checkTotalOrder(t, d.deliv, learners, 60)
	for i := 0; i < 3; i++ {
		if d.l.Node(proto.NodeID(i)).Stats().DiskWrites == 0 {
			t.Fatalf("acceptor %d wrote nothing", i)
		}
	}
}

func TestURingThroughputNearWireSpeed(t *testing.T) {
	// §3.5.3 / Table 3.2: U-Ring Paxos reaches ~90% efficiency.
	d := deployU(UConfig{}, 3, 0, 1)
	stop := false
	n := 0
	env := d.l.Node(0)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for i := 0; i < 4; i++ {
			n++
			d.agents[0].Propose(core.Value{ID: core.ValueID(n), Bytes: 8192})
		}
		env.After(270*time.Microsecond, pump) // ~970 Mbps offered
	}
	pump()
	d.l.Run(time.Second)
	stop = true
	mbps := float64(d.agents[2].DeliveredBytes) * 8 / 1e6
	t.Logf("U-Ring Paxos delivery throughput: %.0f Mbps", mbps)
	if mbps < 600 {
		t.Fatalf("throughput %.0f Mbps too low for U-Ring Paxos", mbps)
	}
}

func TestURingLatencyGrowsWithRingSize(t *testing.T) {
	lat := func(n int) time.Duration {
		d := deployU(UConfig{}, n, 0, 1)
		var lats []time.Duration
		d.agents[0].Latencies = &lats
		env := d.l.Node(0)
		stop := false
		var pump func()
		pump = func() {
			if stop {
				return
			}
			d.agents[0].Propose(core.Value{ID: 1, Bytes: 1024, Born: env.Now()})
			env.After(2*time.Millisecond, pump)
		}
		pump()
		d.l.Run(500 * time.Millisecond)
		stop = true
		if d.agents[0].LatencyCount == 0 {
			t.Fatal("no latency samples")
		}
		return d.agents[0].LatencySum / time.Duration(d.agents[0].LatencyCount)
	}
	small, big := lat(3), lat(11)
	if big <= small {
		t.Fatalf("latency did not grow with ring size: %v (n=3) vs %v (n=11)", small, big)
	}
}

func TestURingSlowLearnerBackpressure(t *testing.T) {
	// One slow node on the ring bounds the whole ring's delivery rate but
	// never causes loss (TCP flow control, §3.3.6).
	cfg := UConfig{ExecCost: 100 * time.Microsecond}
	d := deployU(cfg, 3, 0, 1)
	stop := false
	n := 0
	env := d.l.Node(0)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for i := 0; i < 8; i++ {
			n++
			d.agents[0].Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(time.Millisecond, pump)
	}
	pump()
	d.l.Run(2 * time.Second)
	stop = true
	d.l.Run(8 * time.Second) // drain
	var learners []proto.NodeID
	for i := 0; i < 3; i++ {
		learners = append(learners, proto.NodeID(i))
	}
	checkTotalOrder(t, d.deliv, learners, n)
	for i := 0; i < 3; i++ {
		if drops := d.l.Node(proto.NodeID(i)).Stats().MsgsDropped; drops != 0 {
			t.Fatalf("node %d dropped %d messages on reliable channels", i, drops)
		}
	}
}
