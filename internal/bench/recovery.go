package bench

// Crash-recovery workloads (fault.recovery.*): each seed's schedule
// crashes one pinned process with fault.Lose AND restarts it, and the
// same schedule runs once per durability variant. For the mring/uring
// families the variants are DurVolatile (the honest control: the
// amnesiac process retires, classic Paxos forbids it from ever acting as
// an acceptor again, and with no failover configured the ring stalls —
// tripping the oracle's liveness window) and DurWAL (promises and votes
// were appended to a write-ahead log charged to the disk model; replay
// restores them and delivery resumes inside the window). The snapshot
// family runs DurWAL both times and varies the garbage collector
// instead: with staleness eviction the crashed learner's trim floor
// un-pins, the cluster trims past its frontier, and the learner returns
// to find its gap unrecoverable by retransmission — forcing the
// snapshot/state-transfer path; the control pins the floor and catches
// up by plain retransmission.
//
// The safety digest therefore pins, per seed, stalled=true for every
// volatile run and stalled=false for every wal run (plus prefix
// consistency everywhere) — byte-identical across fault seeds and -par
// levels like the rest of the fault family. WAL disk bytes, replay
// counts and the worst delivery-free gap are seed-dependent and pinned
// by the per-experiment output golden; their aggregates feed the
// recovery CI budgets through the same side channel soak stats use (see
// foldStats).

import (
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// recoveryLiveWindow is the oracle's liveness window for the recovery
// families: far above one outage-plus-replay cycle (downtime is at most
// 80 ms), far below the post-crash remainder of the run (the generated
// crash fires by 550 ms of the 1 s run), so a volatile stall always
// trips it and a WAL recovery never does.
const recoveryLiveWindow = 250 * time.Millisecond

var recoveryCols = []column{colEvents, colMinPos, colMaxPos, colLost, colWalBytes, colReplayed, colSnaps, colGapMS, colStalled, colConsistent}

var recoveryVariants = []variant{
	{name: "volatile", live: recoveryLiveWindow, edit: durability(ringpaxos.DurVolatile)},
	{name: "wal", live: recoveryLiveWindow, edit: durability(ringpaxos.DurWAL)},
}

// snapshotVariants both run DurWAL; the control pins the trim floor on
// the crashed learner, the eviction run un-pins it and forces the
// snapshot path. 100 ms staleness against a >=300 ms outage makes
// eviction certain for every seed.
var snapshotVariants = []variant{
	{name: "pin", live: recoveryLiveWindow, edit: durability(ringpaxos.DurWAL)},
	{name: "evict", live: recoveryLiveWindow, edit: func(d *deploySpec) {
		durability(ringpaxos.DurWAL)(d)
		d.mring.GCEvict = 100 * time.Millisecond
	}},
}

var recoveryFamilies = []family{
	{
		id:     "fault.recovery.mring",
		title:  "M-Ring Paxos acceptor crash+restart: WAL replay recovers the m-quorum, volatile loss retires it and stalls",
		head:   "fault.recovery.mring — M-Ring Paxos (ring 3), 20 Mbps of 1 KB values, acceptor crash+restart with state loss: volatile retirement vs WAL replay",
		deploy: faultMRing, sched: mringRecoverySchedule, variants: recoveryVariants, cols: recoveryCols, fold: foldRecovery,
	},
	{
		id:     "fault.recovery.uring",
		title:  "U-Ring Paxos coordinator crash+restart: WAL replay resumes coordinatorship, volatile loss retires it and stalls",
		head:   "fault.recovery.uring — U-Ring Paxos (3 acceptors, 4-process ring), 20 Mbps of 1 KB values, coordinator crash+restart with state loss: volatile retirement vs WAL replay",
		deploy: failoverURing, sched: uringRecoverySchedule, variants: recoveryVariants, cols: recoveryCols, fold: foldRecovery,
	},
	{
		id:     "fault.recovery.snapshot",
		title:  "M-Ring Paxos learner outage past the GC trim floor: staleness eviction + snapshot catch-up vs floor-pinning control",
		head:   "fault.recovery.snapshot — M-Ring Paxos (ring 3, WAL), 20 Mbps of 1 KB values, 300 ms learner outage: floor-pinning retransmission vs staleness eviction + snapshot catch-up",
		deploy: faultMRing, sched: snapshotSchedule, variants: snapshotVariants, cols: recoveryCols, fold: foldRecovery,
	},
}

// durability returns the edit that sets the ring's durability mode; under
// DurWAL every acceptor also gets a write-ahead log.
func durability(dur ringpaxos.Durability) func(*deploySpec) {
	return func(d *deploySpec) {
		if d.mring != nil {
			d.mring.Durability = dur
		} else {
			d.uring.Durability = dur
		}
		d.wal = dur == ringpaxos.DurWAL
	}
}

// foldRecovery feeds the aggregates the CI recovery budgets gate:
// DiskBytes sums the modeled WAL bytes appended across every run of the
// family; RecoveryMS is the worst delivery-free gap (simulated, in
// milliseconds) of any run that recovered — outage plus replay plus
// catch-up. A run that stalled contributes no gap: the safety golden
// already pins which runs may stall.
func foldRecovery(r *AllocResult, run *famRun) {
	r.DiskBytes += uint64(run.rig.walBytes())
	if !run.orc.Stalled() {
		r.RecoveryMS = max(r.RecoveryMS, float64(run.orc.MaxGap())/1e6)
	}
}

// --- M-Ring Paxos: mid-ring acceptor crash+restart ---

// mringRecoverySchedule pins the single crash+restart on acceptor 1
// (mid-ring: neither the coordinator nor the ring head, so the variants
// isolate pure acceptor durability); only the instant and outage length
// vary with the seed.
func mringRecoverySchedule(seed int64) *fault.Schedule {
	return fault.Generate(seed, fault.Profile{
		Window:  faultWindow,
		Crashes: 1,
		Pinned:  []proto.NodeID{1},
		Mode:    fault.Lose,
		MinDown: 20 * time.Millisecond,
		MaxDown: 80 * time.Millisecond,
	})
}

// --- U-Ring Paxos: coordinator crash+restart ---

// uringRecoverySchedule pins the crash+restart on the U-Ring coordinator
// (FIRST ring position, node 0): the process whose durability decides
// whether the whole ring survives its return.
func uringRecoverySchedule(seed int64) *fault.Schedule {
	return fault.Generate(seed, fault.Profile{
		Window:  faultWindow,
		Crashes: 1,
		Pinned:  []proto.NodeID{0},
		Mode:    fault.Lose,
		MinDown: 20 * time.Millisecond,
		MaxDown: 80 * time.Millisecond,
	})
}

// --- M-Ring Paxos: learner outage past the trim floor ---

// snapshotSchedule pins a long (>=300 ms) learner outage so the 100 ms
// staleness eviction of the evict variant is certain to fire while the
// learner is away; the generator's slot clamp keeps the restart inside
// the fault window.
func snapshotSchedule(seed int64) *fault.Schedule {
	return fault.Generate(seed, fault.Profile{
		Window:  faultWindow,
		Crashes: 1,
		Pinned:  []proto.NodeID{101},
		Mode:    fault.Lose,
		MinDown: 300 * time.Millisecond,
		MaxDown: 349 * time.Millisecond,
	})
}
