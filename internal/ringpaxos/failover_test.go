package ringpaxos

// Failover edge cases: permanent coordinator crashes, elections racing
// Phase 1, restart catch-up of the ring layout, double failures with spare
// refill, stale restarted coordinators, elections across healing
// partitions, and quorum loss. The detector and election live on the
// shared ringCore, so the scenarios that make sense for both ring layouts
// run table-driven over both. All schedules are deterministic
// fault.Schedule events on the simulated LAN.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// testFailover is the detector tuning every failover test uses: fast
// enough that elections finish in a few simulated milliseconds.
var testFailover = Failover{Heartbeat: 2 * time.Millisecond, Suspect: 6 * time.Millisecond}

// foRig is a failover-enabled deployment of either ring layout, reduced
// to what the scenarios need: the shared core of every process, where
// proposals enter, and who delivers.
type foRig struct {
	l     *lan.LAN
	cores map[proto.NodeID]*ringCore
	// propose submits a value at the rig's proposer, a non-acceptor that
	// no scenario kills (its Env drives the pump timer).
	propose  func(core.Value)
	proposer proto.NodeID
	// learners are the processes that outlive the initial coordinator.
	learners []proto.NodeID
	deliv    map[proto.NodeID][]core.ValueID
}

// foLayouts are the two ring layouts the shared scenarios run over. cast
// names, for n acceptors 0..n-1, the initial coordinator, its ring
// successor, and the heir — the highest-id acceptor once the coordinator
// is dead, whom every election must pick.
var foLayouts = []struct {
	name   string
	cast   func(n int) (coord, next, heir proto.NodeID)
	deploy func(t *testing.T, n int, seed int64, sched *fault.Schedule) *foRig
}{
	{
		name: "mring",
		cast: func(n int) (coord, next, heir proto.NodeID) { return proto.NodeID(n - 1), 0, proto.NodeID(n - 2) },
		deploy: func(t *testing.T, n int, seed int64, sched *fault.Schedule) *foRig {
			return deployMFailover(t, n, nil, seed, sched)
		},
	},
	{
		name:   "uring",
		cast:   func(n int) (coord, next, heir proto.NodeID) { return 0, 1, proto.NodeID(n - 1) },
		deploy: deployUFailover,
	},
}

// deployMFailover wires an M-Ring deployment with failover enabled: ring
// acceptors 0..nRing-1 (nRing-1 coordinates), optional spares, learners
// 100/101, proposer 200. Unlike deployM, the proposer subscribes to the
// group so it hears mRingChange and re-aims proposals after an election.
func deployMFailover(t *testing.T, nRing int, spares []proto.NodeID, seed int64, sched *fault.Schedule) *foRig {
	t.Helper()
	cfg := MConfig{Group: 1, Spares: spares, Failover: testFailover, Learners: []proto.NodeID{100, 101}}
	for i := 0; i < nRing; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	r := &foRig{
		l:        lan.New(lan.DefaultConfig(), seed),
		cores:    make(map[proto.NodeID]*ringCore),
		proposer: 200,
		learners: cfg.Learners,
		deliv:    make(map[proto.NodeID][]core.ValueID),
	}
	for _, id := range slices.Concat(cfg.Ring, spares, cfg.Learners, []proto.NodeID{r.proposer}) {
		a := &MAgent{Cfg: cfg}
		a.Deliver = func(inst int64, v core.Value) { r.deliv[id] = append(r.deliv[id], v.ID) }
		r.cores[id] = &a.ringCore
		r.propose = a.Propose // the last one added: the proposer's
		r.l.AddNode(id, a)
		r.l.Subscribe(1, id)
	}
	r.l.InstallFaults(sched)
	r.l.Start()
	return r
}

// deployUFailover wires a U-Ring deployment with failover enabled: nacc
// acceptors 0..nacc-1 (0 coordinates) followed by one non-acceptor ring
// member, the proposer; every process is a learner.
func deployUFailover(t *testing.T, nacc int, seed int64, sched *fault.Schedule) *foRig {
	t.Helper()
	cfg := UConfig{NumAcceptors: nacc, Failover: testFailover}
	for i := 0; i <= nacc; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	cfg.Learners = cfg.Ring
	r := &foRig{
		l:        lan.New(lan.DefaultConfig(), seed),
		cores:    make(map[proto.NodeID]*ringCore),
		proposer: proto.NodeID(nacc),
		learners: cfg.Ring[1:],
		deliv:    make(map[proto.NodeID][]core.ValueID),
	}
	for _, id := range cfg.Ring {
		a := &UAgent{Cfg: cfg}
		a.Deliver = func(inst int64, v core.Value) { r.deliv[id] = append(r.deliv[id], v.ID) }
		r.cores[id] = &a.ringCore
		r.propose = a.Propose // the last ring member: the proposer
		r.l.AddNode(id, a)
	}
	r.l.InstallFaults(sched)
	r.l.Start()
	return r
}

func (r *foRig) proposeN(base, n int) {
	for i := 0; i < n; i++ {
		r.propose(core.Value{ID: core.ValueID(base + i), Bytes: 512})
	}
}

// pump proposes five values every 2 ms from the proposer until *stop.
func (r *foRig) pump(stop *bool) {
	env := r.l.Node(r.proposer)
	n := 0
	var tick func()
	tick = func() {
		if *stop {
			return
		}
		r.proposeN(n+1, 5)
		n += 5
		env.After(2*time.Millisecond, tick)
	}
	tick()
}

// coordinators returns, in id order, which processes outside dead claim an
// established coordinatorship (a dead one keeps its pre-crash claim).
func (r *foRig) coordinators(dead ...proto.NodeID) []proto.NodeID {
	var out []proto.NodeID
	for id, c := range r.cores {
		if c.IsCoordinator() && !slices.Contains(dead, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (r *foRig) wantCoordinator(t *testing.T, when string, want proto.NodeID, dead ...proto.NodeID) {
	t.Helper()
	if got := r.coordinators(dead...); !slices.Equal(got, []proto.NodeID{want}) {
		t.Fatalf("coordinators %s: %v, want [%d]", when, got, want)
	}
}

// TestFailoverPermanentCrash kills the coordinator with no restart: the
// highest-id surviving acceptor must take over via ring-neighbor
// suspicion, re-run Phase 1, announce the re-laid-out ring (M-Ring: the
// shrunk ring, on the group; U-Ring: itself at the head of a shrunk
// acceptor segment, proposal forwarding re-routed around the dead node)
// and order new proposals.
func TestFailoverPermanentCrash(t *testing.T) {
	for _, lay := range foLayouts {
		t.Run(lay.name, func(t *testing.T) {
			coord, _, heir := lay.cast(3)
			r := lay.deploy(t, 3, 1, fault.New(1).Crash(100*time.Millisecond, coord, fault.Lose))
			r.proposeN(1, 50)
			r.l.Run(time.Second)
			r.wantCoordinator(t, "after failover", heir, coord)
			r.proposeN(1001, 30)
			r.l.Run(time.Second)
			checkTotalOrder(t, r.deliv, r.learners, 80)
		})
	}
}

// TestFailoverKillDuringPhase1 crashes the coordinator microseconds into
// the run, while its initial Phase 1 messages are still in flight.
func TestFailoverKillDuringPhase1(t *testing.T) {
	for _, lay := range foLayouts {
		t.Run(lay.name, func(t *testing.T) {
			coord, _, heir := lay.cast(3)
			r := lay.deploy(t, 3, 2, fault.New(1).Crash(30*time.Microsecond, coord, fault.Lose))
			r.l.Run(500 * time.Millisecond)
			r.wantCoordinator(t, "after mid-Phase-1 kill", heir, coord)
			r.proposeN(1, 40)
			r.l.Run(time.Second)
			checkTotalOrder(t, r.deliv, r.learners, 40)
		})
	}
}

// TestFailoverRestartRingStateCatchUp restarts the coordinator's ring
// successor AFTER the ring was reconfigured around the permanently dead
// coordinator. Without the ring-state catch-up the restarted node would
// aim its failure detector at the stale pre-crash layout, suspect its
// long-dead ex-predecessor and nominate a takeover of a ring that already
// moved on. With it, the node asks a live member for the current layout
// before arming the detector, adopts it, and the settled coordinator stays
// unchallenged. U-Ring runs five acceptors, not four: two are out at once,
// and its Phase 1 needs a majority of the original set.
func TestFailoverRestartRingStateCatchUp(t *testing.T) {
	for i, lay := range foLayouts {
		t.Run(lay.name, func(t *testing.T) {
			n := 4 + i
			coord, next, heir := lay.cast(n)
			r := lay.deploy(t, n, 1, fault.New(1).
				CrashFor(100*time.Millisecond, 300*time.Millisecond, next, fault.Lose).
				Crash(150*time.Millisecond, coord, fault.Lose))
			// Let the election settle while the node is still down, note the
			// winner's round, then let it restart and observe for a while.
			r.l.Run(390 * time.Millisecond)
			r.wantCoordinator(t, "before restart", heir, coord, next)
			settled := r.cores[heir].crnd
			r.l.Run(610 * time.Millisecond)
			r.wantCoordinator(t, "after restart", heir, coord)
			if got := r.cores[heir].crnd; got != settled {
				t.Fatalf("restarted node forced a re-election: round %d -> %d", settled, got)
			}
			back := r.cores[next]
			if !slices.Equal(back.ring, r.cores[heir].ring) {
				t.Fatalf("restarted node's ring %v, want the reconfigured %v", back.ring, r.cores[heir].ring)
			}
			if back.fo.needRing {
				t.Fatal("ring-state catch-up never completed")
			}
		})
	}
}

// TestMRingFailoverDoubleWithSpare kills the coordinator AND its elected
// successor: the detector escalates past the dead nominee, and the new
// ring refills from the configured spare (5) to keep its size.
func TestMRingFailoverDoubleWithSpare(t *testing.T) {
	sched := fault.New(1).
		Crash(50*time.Millisecond, 2, fault.Lose).
		Crash(52*time.Millisecond, 1, fault.Lose)
	r := deployMFailover(t, 3, []proto.NodeID{5}, 3, sched)
	r.proposeN(1, 30)
	r.l.Run(2 * time.Second)
	r.wantCoordinator(t, "after double failover", 0, 1, 2)
	if ring := r.cores[0].ring; !slices.Contains(ring, 5) || slices.Contains(ring, 1) || slices.Contains(ring, 2) {
		t.Fatalf("reconfigured ring %v, want spare 5 in, dead 1/2 out", ring)
	}
	r.proposeN(1001, 30)
	r.l.Run(time.Second)
	checkTotalOrder(t, r.deliv, r.learners, 60)
}

// TestMRingFailoverStaleCoordinatorFenced crashes the coordinator with
// Lose and restarts it after the election: the restarted node still
// believes it coordinates round r, but the first higher-round message it
// sees forces it to stand down, and its stale proposals can never fence
// past the acceptors' round.
func TestMRingFailoverStaleCoordinatorFenced(t *testing.T) {
	sched := fault.New(1).CrashFor(50*time.Millisecond, 200*time.Millisecond, 2, fault.Lose)
	r := deployMFailover(t, 3, nil, 4, sched)
	// Continuous traffic keeps the new coordinator's 2As flowing past the
	// restarted node, so its detector stays fed and fencing is immediate.
	stop := false
	r.pump(&stop)
	r.l.Run(time.Second)
	stop = true
	r.wantCoordinator(t, "after restart of stale coordinator", 1)
	r.l.Run(500 * time.Millisecond)
	checkTotalOrder(t, r.deliv, r.learners, -1)
	if len(r.deliv[100]) == 0 {
		t.Fatal("no deliveries across the failover")
	}
}

// TestMRingFailoverDuringPartitionHeal partitions the coordinator away
// instead of killing it: the majority side elects a replacement, the
// isolated coordinator suspects everyone else, and after the heal the
// round order picks exactly one winner while every learner stays on one
// agreed sequence.
func TestMRingFailoverDuringPartitionHeal(t *testing.T) {
	sched := fault.New(1).Split(100*time.Millisecond, 150*time.Millisecond, 2)
	r := deployMFailover(t, 3, nil, 5, sched)
	stop := false
	r.pump(&stop)
	r.l.Run(100 * time.Millisecond)
	pre := len(r.deliv[100])
	r.l.Run(1900 * time.Millisecond)
	stop = true
	if got := r.coordinators(); len(got) != 1 {
		t.Fatalf("coordinators after heal: %v, want exactly one", got)
	}
	checkTotalOrder(t, r.deliv, r.learners, -1)
	if post := len(r.deliv[100]); post <= pre {
		t.Fatalf("no delivery progress across partition+heal: %d -> %d", pre, post)
	}
}

// TestURingFailoverQuorumLoss kills two of the three original acceptors.
// The Phase 1 quorum stays a majority of the ORIGINAL acceptor set, so
// the second election can never complete — the ring correctly prefers
// stalling to serving from a non-intersecting quorum.
func TestURingFailoverQuorumLoss(t *testing.T) {
	sched := fault.New(1).
		Crash(50*time.Millisecond, 0, fault.Lose).
		Crash(150*time.Millisecond, 2, fault.Lose)
	r := deployUFailover(t, 3, 7, sched)
	r.proposeN(1, 30)
	r.l.Run(time.Second)
	if r.cores[1].IsCoordinator() {
		t.Fatal("acceptor 1 established coordinatorship without an original-majority quorum")
	}
	checkTotalOrder(t, r.deliv, []proto.NodeID{1, 3}, 30)
}
