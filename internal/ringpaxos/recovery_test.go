package ringpaxos

// Crash+restart recovery: write-ahead-log replay for acceptors and
// coordinators, the honest DurVolatile stall, snapshot catch-up past the
// garbage-collection trim floor, and the post-restart ring-state catch-up
// that keeps a restarted node from churning a reconfigured ring. All
// schedules are deterministic fault.Schedule events on the simulated LAN.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/wal"
)

// deployMDurable wires an M-Ring deployment (ring 0..nRing-1, learners
// 100/101, proposer 200) with the given durability; ring members get
// write-ahead logs when dur is DurWAL. The logs are returned keyed by
// node so tests can inspect replay counters.
func deployMDurable(t *testing.T, dur Durability, evict time.Duration, fo Failover,
	seed int64, sched *fault.Schedule) (*mDeploy, map[proto.NodeID]*wal.Log) {
	t.Helper()
	cfg := MConfig{Durability: dur, GCEvict: evict, Failover: fo}
	d := &mDeploy{
		l:      lan.New(lan.DefaultConfig(), seed),
		agents: make(map[proto.NodeID]*MAgent),
		deliv:  make(map[proto.NodeID][]core.ValueID),
		spec:   make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < 3; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	d.learners = []proto.NodeID{100, 101}
	cfg.Learners = d.learners
	cfg.Group = 1
	logs := make(map[proto.NodeID]*wal.Log)
	add := func(id proto.NodeID) {
		a := &MAgent{Cfg: cfg}
		if dur == DurWAL && slices.Contains(cfg.Ring, id) {
			logs[id] = &wal.Log{}
			a.Log = logs[id]
		}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents[id] = a
		d.l.AddNode(id, a)
		d.l.Subscribe(1, id)
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
	d.l.Subscribe(1, 200)
	d.l.InstallFaults(sched)
	d.l.Start()
	return d, logs
}

// pump drives a steady proposal stream from the deployment's proposer.
func pumpM(d *mDeploy, stop *bool) {
	env := d.l.Node(200)
	n := 0
	var tick func()
	tick = func() {
		if *stop {
			return
		}
		for i := 0; i < 3; i++ {
			n++
			d.prop.Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(2*time.Millisecond, tick)
	}
	tick()
}

// TestMRingWALRecovery crashes a mid-ring acceptor with fault.Lose under
// DurWAL: its promises and votes come back by log replay, the ring keeps
// the m-quorum, and ordering resumes — versus DurVolatile below, where
// the same crash retires the acceptor and stalls the ring for good.
func TestMRingWALRecovery(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 1, fault.Lose)
	d, logs := deployMDurable(t, DurWAL, 0, Failover{}, 1, sched)
	stop := false
	pumpM(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if logs[1].Replayed() == 0 {
		t.Fatal("crashed acceptor replayed no WAL records")
	}
	if logs[1].Appends() == 0 || logs[1].Bytes() == 0 {
		t.Fatalf("acceptor WAL saw no appends: appends=%d bytes=%d", logs[1].Appends(), logs[1].Bytes())
	}
	// Ordering must have resumed after the restart: far more deliveries
	// than the ~150 the pre-crash window can account for.
	if n := len(d.deliv[100]); n < 400 {
		t.Fatalf("only %d deliveries; recovery did not resume ordering", n)
	}
	if d.agents[1].retired {
		t.Fatal("WAL-recovered acceptor must not retire")
	}
}

// TestMRingVolatileAcceptorStalls runs the same crash under DurVolatile:
// the restarted acceptor must retire (classic Paxos forbids an amnesiac
// acceptor), and with the m-quorum broken and no failover configured the
// ring stops deciding — honestly surfacing what losing stable storage
// costs. Safety still holds: no learner diverges.
func TestMRingVolatileAcceptorStalls(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 1, fault.Lose)
	d, _ := deployMDurable(t, DurVolatile, 0, Failover{}, 1, sched)
	stop := false
	pumpM(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	checkTotalOrder(t, d.deliv, d.learners, -1)
	if !d.agents[1].retired {
		t.Fatal("volatile acceptor did not retire after losing its state")
	}
	// Deliveries must have stopped near the crash point: the pre-crash
	// ~100 ms of traffic, nothing close to the WAL run's full second.
	if n := len(d.deliv[100]); n == 0 || n >= 400 {
		t.Fatalf("%d deliveries; want a stall after the 100 ms crash", n)
	}
}

// deployUDurable wires a U-Ring deployment (4 nodes, 3 acceptors, every
// process a learner) with the given durability; acceptors get WALs when
// dur is DurWAL.
func deployUDurable(dur Durability, seed int64, sched *fault.Schedule) (*uDeploy, map[proto.NodeID]*wal.Log) {
	cfg := UConfig{NumAcceptors: 3, Durability: dur}
	d := &uDeploy{
		l:     lan.New(lan.DefaultConfig(), seed),
		deliv: make(map[proto.NodeID][]core.ValueID),
	}
	for i := 0; i < 4; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	logs := make(map[proto.NodeID]*wal.Log)
	for i := 0; i < 4; i++ {
		id := proto.NodeID(i)
		a := &UAgent{Cfg: cfg}
		if dur == DurWAL && i < cfg.NumAcceptors {
			logs[id] = &wal.Log{}
			a.Log = logs[id]
		}
		a.Deliver = func(inst int64, v core.Value) {
			d.deliv[id] = append(d.deliv[id], v.ID)
		}
		d.agents = append(d.agents, a)
		d.l.AddNode(id, a)
	}
	d.l.InstallFaults(sched)
	d.l.Start()
	return d, logs
}

func pumpU(d *uDeploy, stop *bool) {
	env := d.l.Node(3)
	n := 0
	var tick func()
	tick = func() {
		if *stop {
			return
		}
		for i := 0; i < 3; i++ {
			n++
			d.agents[3].Propose(core.Value{ID: core.ValueID(n), Bytes: 512})
		}
		env.After(2*time.Millisecond, tick)
	}
	tick()
}

// TestURingWALCoordinatorRecovery crashes the U-Ring coordinator with
// fault.Lose under DurWAL and no failover: on restart it replays its log
// — including the promise that proves its own round — and re-enters
// Phase 1 one round above it, resuming coordinatorship. The ring, dead
// while the coordinator was down, comes back to life.
func TestURingWALCoordinatorRecovery(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 0, fault.Lose)
	d, logs := deployUDurable(DurWAL, 1, sched)
	stop := false
	pumpU(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	if !d.agents[0].IsCoordinator() {
		t.Fatal("WAL-recovered coordinator did not resume coordinatorship")
	}
	if logs[0].Replayed() == 0 {
		t.Fatal("crashed coordinator replayed no WAL records")
	}
	checkTotalOrder(t, d.deliv, []proto.NodeID{1, 2, 3}, -1)
	if n := len(d.deliv[3]); n < 400 {
		t.Fatalf("only %d deliveries; the ring did not resume after replay", n)
	}
}

// TestURingVolatileCoordinatorStalls runs the same crash under
// DurVolatile: the restarted coordinator retires, drops proposals
// addressed to the coordinatorship it cannot prove, and with no failover
// the whole ring stalls — the mexos ceiling ("does not store anything
// persistently, so cannot handle crash+restart") made measurable.
func TestURingVolatileCoordinatorStalls(t *testing.T) {
	sched := fault.New(1).CrashFor(100*time.Millisecond, 150*time.Millisecond, 0, fault.Lose)
	d, _ := deployUDurable(DurVolatile, 1, sched)
	stop := false
	pumpU(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	if d.agents[0].IsCoordinator() {
		t.Fatal("amnesiac coordinator resumed coordinatorship without a log")
	}
	if !d.agents[0].retired {
		t.Fatal("volatile coordinator did not retire")
	}
	checkTotalOrder(t, d.deliv, []proto.NodeID{1, 2, 3}, -1)
	if n := len(d.deliv[3]); n == 0 || n >= 400 {
		t.Fatalf("%d deliveries; want a stall after the 100 ms crash", n)
	}
}

// TestMRingSnapshotCatchUp crashes a LEARNER long enough for staleness
// eviction (GCEvict) to un-pin the trim floor: by the time the learner
// returns, the instances it needs were garbage-collected everywhere, its
// retransmission requests fall below the floor, and the acceptor answers
// with a state snapshot. The learner installs it, jumps its frontier and
// resumes ordered delivery — its post-snapshot sequence must align with
// the suffix of a healthy learner's sequence.
func TestMRingSnapshotCatchUp(t *testing.T) {
	sched := fault.New(1).CrashFor(200*time.Millisecond, 300*time.Millisecond, 101, fault.Lose)
	d, _ := deployMDurable(t, DurWAL, 100*time.Millisecond, Failover{}, 1, sched)
	stop := false
	pumpM(d, &stop)
	d.l.Run(time.Second)
	stop = true
	d.l.Run(200 * time.Millisecond)
	back := d.agents[101]
	if back.SnapshotsInstalled == 0 {
		t.Fatal("returning learner installed no snapshot")
	}
	healthy, caught := d.deliv[100], d.deliv[101]
	if len(caught) == 0 {
		t.Fatal("returning learner delivered nothing after the snapshot")
	}
	// The caught-up learner's post-crash deliveries must be a contiguous
	// slice of the healthy learner's sequence (prefix consistency modulo
	// the snapshotted gap).
	tail := caught[len(caught)-200:]
	start := -1
	for i, v := range healthy {
		if v == tail[0] {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("caught-up learner's tail head %d not in healthy sequence", tail[0])
	}
	for i, v := range tail {
		if start+i >= len(healthy) || healthy[start+i] != v {
			t.Fatalf("caught-up learner diverges at tail offset %d", i)
		}
	}
	if back.NextDeliver() <= d.agents[0].gc.Floor()-1 {
		t.Fatalf("frontier %d did not pass the trim floor %d", back.NextDeliver(), d.agents[0].gc.Floor())
	}
}

// TestDurWALWithoutLogRetires pins the nil-log rule on both variants: a
// process configured DurWAL but deployed without a Log has nothing to
// replay after a Lose crash, so it must take the DurVolatile branch and
// retire. Rejoining with full rights — for a coordinator, re-entering
// Phase 1 — would let it promise and vote again having forgotten what it
// promised. Each agent sits at its ring's coordinator position, the case
// where the amnesiac would otherwise resume leading.
func TestDurWALWithoutLogRetires(t *testing.T) {
	m := &MAgent{Cfg: MConfig{Ring: []proto.NodeID{1, 0}, Group: 1, Durability: DurWAL}}
	u := &UAgent{Cfg: UConfig{Ring: []proto.NodeID{0, 1, 2}, Durability: DurWAL}}
	for _, tc := range []struct {
		name  string
		agent interface {
			proto.Handler
			proto.VolatileLoser
		}
		core *ringCore
	}{{"mring", m, &m.ringCore}, {"uring", u, &u.ringCore}} {
		t.Run(tc.name, func(t *testing.T) {
			env := &fakeEnv{id: 0, rng: rand.New(rand.NewSource(1))}
			tc.agent.Start(env)
			if !tc.core.isCoord {
				t.Fatal("agent did not start Phase 1 at its coordinator position")
			}
			env.sends = nil
			tc.agent.LoseVolatile()
			if !tc.core.retired {
				t.Fatal("DurWAL without a Log did not retire after losing its state")
			}
			if tc.core.isCoord || len(env.sends) != 0 {
				t.Fatalf("amnesiac re-entered Phase 1: isCoord=%v, %d messages sent", tc.core.isCoord, len(env.sends))
			}
		})
	}
}
