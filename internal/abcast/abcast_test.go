package abcast

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/proto"
)

func checkSameOrder(t *testing.T, deliv map[proto.NodeID][]core.ValueID, nodes []proto.NodeID, want int) {
	t.Helper()
	var ref []core.ValueID
	for _, id := range nodes {
		got := deliv[id]
		if want >= 0 && len(got) != want {
			t.Fatalf("node %d delivered %d values, want %d", id, len(got), want)
		}
		seen := make(map[core.ValueID]bool)
		for _, v := range got {
			if seen[v] {
				t.Fatalf("node %d delivered %d twice", id, v)
			}
			seen[v] = true
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if i < len(got) && got[i] != ref[i] {
				t.Fatalf("order diverges at %d: %d vs %d", i, got[i], ref[i])
			}
		}
	}
}

// --- LCR ---

type lcrRig struct {
	l     *lan.LAN
	nodes []*LCR
	ids   []proto.NodeID
	deliv map[proto.NodeID][]core.ValueID
}

func newLCR(n int, disk bool, seed int64) *lcrRig {
	r := &lcrRig{l: lan.New(lan.DefaultConfig(), seed), deliv: make(map[proto.NodeID][]core.ValueID)}
	for i := 0; i < n; i++ {
		r.ids = append(r.ids, proto.NodeID(i))
	}
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		a := &LCR{Ring: r.ids, DiskSync: disk}
		a.Deliver = func(_ int64, v core.Value) { r.deliv[id] = append(r.deliv[id], v.ID) }
		r.nodes = append(r.nodes, a)
		r.l.AddNode(id, a)
	}
	r.l.Start()
	return r
}

func TestLCRTotalOrderSingleBroadcaster(t *testing.T) {
	r := newLCR(4, false, 1)
	for i := 0; i < 100; i++ {
		r.nodes[1].Broadcast(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	r.l.Run(2 * time.Second)
	checkSameOrder(t, r.deliv, r.ids, 100)
}

func TestLCRAllNodesBroadcast(t *testing.T) {
	r := newLCR(5, false, 2)
	id := 0
	for round := 0; round < 30; round++ {
		for p := 0; p < 5; p++ {
			id++
			r.nodes[p].Broadcast(core.Value{ID: core.ValueID(id), Bytes: 512})
		}
	}
	r.l.Run(3 * time.Second)
	checkSameOrder(t, r.deliv, r.ids, 150)
}

func TestLCRDiskSync(t *testing.T) {
	r := newLCR(3, true, 3)
	for i := 0; i < 40; i++ {
		r.nodes[0].Broadcast(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	r.l.Run(3 * time.Second)
	checkSameOrder(t, r.deliv, r.ids, 40)
	if r.l.Node(1).Stats().DiskWrites == 0 {
		t.Fatal("no disk writes in DiskSync mode")
	}
}

func TestLCRHighThroughput(t *testing.T) {
	// Table 3.2: LCR reaches ~91% efficiency when every node broadcasts.
	r := newLCR(4, false, 1)
	stop := false
	n := 0
	env := r.l.Node(0)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for p := 0; p < 4; p++ {
			n++
			r.nodes[p].Broadcast(core.Value{ID: core.ValueID(n), Bytes: 8192})
		}
		env.After(290*time.Microsecond, pump) // ~900 Mbps aggregate
	}
	pump()
	r.l.Run(time.Second)
	stop = true
	mbps := float64(r.nodes[2].DeliveredBytes) * 8 / 1e6
	t.Logf("LCR delivery throughput: %.0f Mbps", mbps)
	if mbps < 600 {
		t.Fatalf("LCR throughput %.0f Mbps too low", mbps)
	}
}

// --- TokenRing ---

type tokenRig struct {
	l     *lan.LAN
	nodes []*TokenRing
	ids   []proto.NodeID
	deliv map[proto.NodeID][]core.ValueID
}

func newToken(n int, seed int64) *tokenRig {
	r := &tokenRig{l: lan.New(lan.DefaultConfig(), seed), deliv: make(map[proto.NodeID][]core.ValueID)}
	for i := 0; i < n; i++ {
		r.ids = append(r.ids, proto.NodeID(i))
	}
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		a := &TokenRing{Ring: r.ids, Group: 1, DaemonCost: 5 * time.Microsecond}
		a.Deliver = func(_ int64, v core.Value) { r.deliv[id] = append(r.deliv[id], v.ID) }
		r.nodes = append(r.nodes, a)
		r.l.AddNode(id, a)
		r.l.Subscribe(1, id)
	}
	r.l.Start()
	return r
}

func TestTokenRingTotalOrder(t *testing.T) {
	r := newToken(4, 1)
	id := 0
	for round := 0; round < 25; round++ {
		for p := 0; p < 4; p++ {
			id++
			r.nodes[p].Broadcast(core.Value{ID: core.ValueID(id), Bytes: 512})
		}
	}
	r.l.Run(3 * time.Second)
	checkSameOrder(t, r.deliv, r.ids, 100)
}

func TestTokenRingSafeDeliveryLatency(t *testing.T) {
	// Safe delivery needs the token to revolve: latency >> one-way delay.
	r := newToken(5, 2)
	var lat time.Duration
	done := false
	env := r.l.Node(0)
	born := env.Now()
	r.nodes[0].Deliver = func(_ int64, v core.Value) {
		if !done {
			lat = env.Now() - born
			done = true
		}
	}
	r.nodes[0].Broadcast(core.Value{ID: 1, Bytes: 512})
	r.l.Run(time.Second)
	if !done {
		t.Fatal("message never safe-delivered")
	}
	if lat < 500*time.Microsecond {
		t.Fatalf("safe delivery latency %v implausibly small for a token ring", lat)
	}
}

func TestTokenRingSurvivesMulticastLoss(t *testing.T) {
	r := &tokenRig{l: lan.New(lan.DefaultConfig(), 3), deliv: make(map[proto.NodeID][]core.ValueID)}
	for i := 0; i < 3; i++ {
		r.ids = append(r.ids, proto.NodeID(i))
	}
	for i := 0; i < 3; i++ {
		id := proto.NodeID(i)
		a := &TokenRing{Ring: r.ids, Group: 1}
		a.Deliver = func(_ int64, v core.Value) { r.deliv[id] = append(r.deliv[id], v.ID) }
		r.nodes = append(r.nodes, a)
		r.l.AddNode(id, a)
		r.l.Subscribe(1, id)
	}
	r.l.InstallFaults(fault.New(3).WithNet(fault.Net{DropRate: 0.05}))
	r.l.Start()
	for i := 0; i < 50; i++ {
		r.nodes[i%3].Broadcast(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	r.l.Run(5 * time.Second)
	// The token itself travels unicast (reliable); data losses are repaired
	// by retransmission. Everything must eventually deliver in order.
	checkSameOrder(t, r.deliv, r.ids, 50)
}

// --- S-Paxos ---

type spRig struct {
	l     *lan.LAN
	nodes []*SPaxos
	ids   []proto.NodeID
	deliv map[proto.NodeID][]core.ValueID
}

func newSP(n int, seed int64) *spRig {
	r := &spRig{l: lan.New(lan.DefaultConfig(), seed), deliv: make(map[proto.NodeID][]core.ValueID)}
	for i := 0; i < n; i++ {
		r.ids = append(r.ids, proto.NodeID(i))
	}
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		a := &SPaxos{Replicas: r.ids}
		a.Deliver = func(_ int64, v core.Value) { r.deliv[id] = append(r.deliv[id], v.ID) }
		r.nodes = append(r.nodes, a)
		r.l.AddNode(id, a)
	}
	r.l.Start()
	return r
}

// TestSPaxosGCDefaultsOn pins the on-by-default contract end to end: a
// zero-value SPaxos resolves its inner ordering agent to the nonzero
// default GC interval; only the explicit negative opts out. The bounded
// inner log under the default is covered by the soak.spaxos workload.
func TestSPaxosGCDefaultsOn(t *testing.T) {
	r := newSP(3, 1)
	if got := r.nodes[0].GCIntervalEffective(); got != paxos.DefaultGCInterval {
		t.Errorf("zero-value SPaxos resolved inner GCInterval to %v, want %v", got, paxos.DefaultGCInterval)
	}
	l := lan.New(lan.DefaultConfig(), 1)
	off := &SPaxos{Replicas: []proto.NodeID{0, 1, 2}, GCInterval: -1}
	l.AddNode(0, off)
	l.Start()
	if got := off.GCIntervalEffective(); got != 0 {
		t.Errorf("GCInterval -1 resolved to %v, want 0 (off)", got)
	}
}

func TestSPaxosTotalOrder(t *testing.T) {
	r := newSP(3, 1)
	// Clients spread submissions over all replicas (the S-Paxos design).
	for i := 0; i < 90; i++ {
		r.nodes[i%3].Submit(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
	r.l.Run(3 * time.Second)
	checkSameOrder(t, r.deliv, r.ids, 90)
}

func TestSPaxosFiveReplicas(t *testing.T) {
	r := newSP(5, 2)
	for i := 0; i < 100; i++ {
		r.nodes[i%5].Submit(core.Value{ID: core.ValueID(i + 1), Bytes: 1024})
	}
	r.l.Run(3 * time.Second)
	checkSameOrder(t, r.deliv, r.ids, 100)
}

func TestSPaxosModestEfficiency(t *testing.T) {
	// Table 3.2: S-Paxos delivers ~31% of wire speed — far below the ring
	// protocols — because of its n² dissemination pattern.
	r := newSP(3, 1)
	stop := false
	n := 0
	env := r.l.Node(0)
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for p := 0; p < 3; p++ {
			n++
			r.nodes[p].Submit(core.Value{ID: core.ValueID(n), Bytes: 8192})
		}
		env.After(400*time.Microsecond, pump)
	}
	pump()
	r.l.Run(time.Second)
	stop = true
	mbps := float64(r.nodes[1].DeliveredBytes) * 8 / 1e6
	t.Logf("S-Paxos delivery throughput: %.0f Mbps", mbps)
	if mbps < 50 {
		t.Fatalf("S-Paxos throughput %.0f Mbps implausibly low", mbps)
	}
	if mbps > 700 {
		t.Fatalf("S-Paxos throughput %.0f Mbps implausibly high (should trail ring protocols)", mbps)
	}
}
