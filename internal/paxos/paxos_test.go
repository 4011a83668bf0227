package paxos

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// deployment wires a Paxos group onto a simulated LAN:
// node 0: coordinator+acceptor, nodes 1..nAcc-1: acceptors,
// nodes 100+i: learners, node 200: client/proposer.
type deployment struct {
	l        *lan.LAN
	agents   map[proto.NodeID]*Agent
	client   *Agent
	cfg      Config
	learners []proto.NodeID
	deliv    map[proto.NodeID][]core.ValueID
}

func deploy(t testing.TB, nAcc, nLearn int, multicast bool, seed int64) *deployment {
	t.Helper()
	d := &deployment{
		l:      lan.New(lan.DefaultConfig(), seed),
		agents: make(map[proto.NodeID]*Agent),
		deliv:  make(map[proto.NodeID][]core.ValueID),
	}
	var accs []proto.NodeID
	for i := 0; i < nAcc; i++ {
		accs = append(accs, proto.NodeID(i))
	}
	for i := 0; i < nLearn; i++ {
		d.learners = append(d.learners, proto.NodeID(100+i))
	}
	d.cfg = Config{
		Coordinator: 0,
		Acceptors:   accs,
		Learners:    d.learners,
		Multicast:   multicast,
		Group:       1,
	}
	add := func(id proto.NodeID) *Agent {
		a := &Agent{Cfg: d.cfg}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents[id] = a
		d.l.AddNode(id, a)
		if multicast {
			d.l.Subscribe(1, id)
		}
		return a
	}
	for _, id := range accs {
		add(id)
	}
	for _, id := range d.learners {
		add(id)
	}
	d.client = &Agent{Cfg: d.cfg}
	d.agents[200] = d.client
	d.l.AddNode(200, d.client)
	d.l.Start()
	return d
}

func (d *deployment) propose(n int) {
	for i := 0; i < n; i++ {
		d.client.Propose(core.Value{ID: core.ValueID(i + 1), Bytes: 512})
	}
}

func checkLearners(t *testing.T, d *deployment, want int) {
	t.Helper()
	var ref []core.ValueID
	for _, id := range d.learners {
		got := d.deliv[id]
		if len(got) != want {
			t.Fatalf("learner %d delivered %d values, want %d", id, len(got), want)
		}
		seen := make(map[core.ValueID]bool)
		for _, v := range got {
			if seen[v] {
				t.Fatalf("learner %d delivered value %d twice", id, v)
			}
			seen[v] = true
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order violated at position %d: learner %d has %d, reference has %d",
					i, id, got[i], ref[i])
			}
		}
	}
}

func TestUnicastBasicAgreement(t *testing.T) {
	d := deploy(t, 3, 2, false, 1)
	d.propose(100)
	d.l.Run(2 * time.Second)
	checkLearners(t, d, 100)
}

func TestMulticastBasicAgreement(t *testing.T) {
	d := deploy(t, 3, 3, true, 1)
	d.propose(100)
	d.l.Run(2 * time.Second)
	checkLearners(t, d, 100)
}

func TestAgreementWithFiveAcceptors(t *testing.T) {
	d := deploy(t, 5, 2, true, 3)
	d.propose(250)
	d.l.Run(3 * time.Second)
	checkLearners(t, d, 250)
}

func TestAcceptorCrashMajorityAlive(t *testing.T) {
	d := deploy(t, 3, 2, false, 1)
	d.propose(50)
	d.l.Run(200 * time.Millisecond)
	// Crash one acceptor (not the coordinator); majority of 2 remains.
	d.l.Node(2).SetDown(true)
	for i := 0; i < 50; i++ {
		d.client.Propose(core.Value{ID: core.ValueID(1000 + i), Bytes: 512})
	}
	d.l.Run(3 * time.Second)
	checkLearners(t, d, 100)
}

func TestCoordinatorFailover(t *testing.T) {
	d := deploy(t, 3, 2, false, 1)
	d.propose(30)
	d.l.Run(500 * time.Millisecond)
	before := len(d.deliv[d.learners[0]])
	if before != 30 {
		t.Fatalf("pre-crash: delivered %d of 30", before)
	}
	// Crash the coordinator; acceptor 1 takes over with a higher round.
	d.l.Node(0).SetDown(true)
	d.agents[1].BecomeCoordinator(100)
	for i := 0; i < 20; i++ {
		d.agents[1].Propose(core.Value{ID: core.ValueID(2000 + i), Bytes: 512})
	}
	d.l.Run(3 * time.Second)
	// Learners keep their order; new values appended. Gap recovery talks to
	// the old coordinator which is down, so learners must have gotten
	// decisions via the direct path.
	for _, id := range d.learners {
		if got := len(d.deliv[id]); got != 50 {
			t.Fatalf("learner %d delivered %d, want 50 after failover", id, got)
		}
	}
	checkLearners(t, d, 50)
}

func TestNewCoordinatorAdoptsPriorVotes(t *testing.T) {
	// A value voted by a quorum must survive a coordinator change: run with
	// two acceptors voting, crash coordinator before decision spreads, let
	// a new coordinator finish the instance.
	d := deploy(t, 3, 2, false, 7)
	d.propose(10)
	// Stop the world mid-protocol (very short run).
	d.l.Run(2 * time.Millisecond)
	d.l.Node(0).SetDown(true)
	d.agents[1].BecomeCoordinator(50)
	d.l.Run(3 * time.Second)
	// Whatever was decided must be consistent across learners; values may
	// or may not have survived, but no divergence and no duplicates.
	n := len(d.deliv[d.learners[0]])
	checkLearners(t, d, n)
}

func TestDiskSyncStillDecides(t *testing.T) {
	d := deploy(t, 3, 2, false, 1)
	for id := range d.agents {
		d.agents[id].Cfg.DiskSync = true
	}
	// Note: Cfg copied at deploy; mutate before Start would be better, but
	// acceptors read Cfg.DiskSync at Phase2A time, so this works.
	d.propose(40)
	d.l.Run(3 * time.Second)
	checkLearners(t, d, 40)
	if d.l.Node(1).Stats().DiskWrites == 0 {
		t.Fatal("disk sync mode performed no writes")
	}
}

// Property: under random workload sizes and seeds, all learners deliver the
// same sequence with no duplicates (uniform total order + integrity).
func TestQuickTotalOrder(t *testing.T) {
	f := func(seed int64, nVals uint8, multicast bool) bool {
		n := int(nVals%64) + 1
		d := deploy(t, 3, 2, multicast, seed)
		for i := 0; i < n; i++ {
			d.client.Propose(core.Value{
				ID:    core.ValueID(i + 1),
				Bytes: 64 + int(seed%7)*100,
			})
		}
		d.l.Run(3 * time.Second)
		for _, id := range d.learners {
			if len(d.deliv[id]) != n {
				return false
			}
		}
		a, b := d.deliv[d.learners[0]], d.deliv[d.learners[1]]
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputSanity(t *testing.T) {
	// Libpaxos-style multicast Paxos should order thousands of small
	// messages per second but stay well below wire speed (coordinator
	// CPU-bound; §3.5.3 reports ~3% efficiency).
	d := deploy(t, 3, 10, true, 1)
	stop := false
	var sent int
	var pump func()
	pump = func() {
		if stop {
			return
		}
		for i := 0; i < 8; i++ {
			sent++
			d.client.Propose(core.Value{ID: core.ValueID(sent), Bytes: 4096})
		}
		// Client offers ~32 KB/ms = 262 Mbps.
		d.clientEnv().After(time.Millisecond, pump)
	}
	d.clientEnv() // ensure started
	pump()
	d.l.Run(1 * time.Second)
	stop = true
	got := len(d.deliv[d.learners[0]])
	if got == 0 {
		t.Fatal("no deliveries")
	}
	mbps := float64(got) * 4096 * 8 / 1e6
	t.Logf("libpaxos-style throughput: %d msgs/s = %.0f Mbps", got, mbps)
	if mbps < 10 {
		t.Fatalf("implausibly low throughput %.1f Mbps", mbps)
	}
}

func (d *deployment) clientEnv() proto.Env { return d.l.Node(200) }

func TestMessageSizes(t *testing.T) {
	b := core.Batch{Vals: []core.Value{{Bytes: 100}, {Bytes: 200}}}
	cases := []struct {
		m    proto.Message
		want int
	}{
		{MsgPropose{V: core.Value{Bytes: 64}}, headerBytes + 64},
		{msgPhase1A{}, headerBytes},
		{msgPhase2A{Val: b}, headerBytes + 300},
		{msgPhase2B{}, headerBytes},
		{msgDecision{Val: b}, headerBytes + 300},
		{msgLearnReq{}, headerBytes},
	}
	for i, c := range cases {
		if got := c.m.Size(); got != c.want {
			t.Errorf("case %d (%T): size %d, want %d", i, c.m, got, c.want)
		}
	}
}

func TestQuorum(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4} {
		cfg := Config{Acceptors: make([]proto.NodeID, n)}
		if got := cfg.Quorum(); got != want {
			t.Errorf("quorum(%d)=%d, want %d", n, got, want)
		}
	}
}

func ExampleAgent() {
	fmt.Println("see package tests for deployment wiring")
	// Output: see package tests for deployment wiring
}

// spy2B sits in front of the coordinator and remembers every Phase 2B
// pointer it receives together with the contents it arrived with.
type spy2B struct {
	*Agent
	t    *testing.T
	seen map[*msgPhase2B]msgPhase2B
	dups int
}

func (s *spy2B) Receive(from proto.NodeID, m proto.Message) {
	if b, ok := m.(*msgPhase2B); ok {
		if first, dup := s.seen[b]; dup {
			s.dups++
			if *b != first {
				s.t.Errorf("duplicate of 2B %+v arrived as %+v: the first delivery recycled a datagram still in flight", first, *b)
			}
		} else {
			s.seen[b] = *b
		}
	}
	s.Agent.Receive(from, m)
}

// TestMulticastDuplicated2BNotRecycled is the regression test for the
// fault.paxos use-after-recycle: in the multicast wiring acceptors vote
// over SendUDP, and a network that duplicates every datagram hands the
// coordinator each 2B pointer twice. The second delivery must still read
// the vote the acceptor sent — the coordinator may not have pooled (zeroed,
// re-issued) it — and every instance must decide in one agreed order.
func TestMulticastDuplicated2BNotRecycled(t *testing.T) {
	l := lan.New(lan.DefaultConfig(), 7)
	cfg := Config{
		Coordinator: 0,
		Acceptors:   []proto.NodeID{0, 1, 2},
		Learners:    []proto.NodeID{100, 101},
		Multicast:   true,
		Group:       1,
		// One value per instance, so instance ids run well past 0 (a
		// zeroed 2B reads as instance 0, round 0).
		BatchBytes: 1,
		BatchDelay: time.Microsecond,
	}
	d := &deployment{l: l, cfg: cfg, learners: cfg.Learners, deliv: make(map[proto.NodeID][]core.ValueID)}
	spy := &spy2B{t: t, seen: make(map[*msgPhase2B]msgPhase2B)}
	for _, id := range append(append([]proto.NodeID{}, cfg.Acceptors...), cfg.Learners...) {
		a := &Agent{Cfg: cfg}
		a.Deliver = func(_ int64, v core.Value) { d.deliv[id] = append(d.deliv[id], v.ID) }
		var h proto.Handler = a
		if id == cfg.Coordinator {
			spy.Agent = a
			h = spy
		}
		l.AddNode(id, h)
		l.Subscribe(cfg.Group, id)
	}
	d.client = &Agent{Cfg: cfg}
	l.AddNode(200, d.client)
	l.InstallFaults(fault.New(1).WithNet(fault.Net{DupRate: 1}))
	l.Start()

	const n = 200
	d.propose(n)
	l.Run(time.Second)
	checkLearners(t, d, n)
	if spy.dups < n {
		t.Fatalf("coordinator saw %d duplicated 2Bs, want at least %d: DupRate=1 is not reaching the vote path", spy.dups, n)
	}
}
