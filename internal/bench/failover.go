package bench

// Coordinator-failover workloads (fault.failover.*): each seed's schedule
// kills the coordinator PERMANENTLY (fault.Profile{Pinned, NoRestart}) and
// the same schedule is run twice — once with failover disabled (the
// control: the deployment stalls, tripping the oracle's liveness check)
// and once with the ring-neighbor detector enabled (the election
// re-establishes a coordinator and delivery resumes inside the liveness
// window). The safety digest therefore pins BOTH outcomes per seed:
// consistent=true everywhere, stalled=true for every control run and
// stalled=false for every failover run — byte-identical across fault
// seeds and -par levels like the rest of the fault family.

import (
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// failoverDetector is the detector tuning both failover experiments use:
// suspicion plus Phase 1 completes in a few tens of simulated
// milliseconds, well inside the liveness window.
var failoverDetector = ringpaxos.Failover{Heartbeat: 5 * time.Millisecond, Suspect: 15 * time.Millisecond}

// failoverLiveWindow is the oracle's liveness window: far above the
// detector's recovery time, far below the post-kill remainder of the run,
// so the control run always trips it and the failover run never does.
const failoverLiveWindow = 120 * time.Millisecond

var failoverCols = []column{colEvents, colMinPos, colMaxPos, colLost, colStalled, colConsistent}

var failoverVariants = []variant{
	{name: "none", live: failoverLiveWindow},
	{name: "failover", live: failoverLiveWindow, edit: withDetector},
}

var failoverFamilies = []family{
	{
		id:     "fault.failover.mring",
		title:  "M-Ring Paxos permanent coordinator kill: detector election + spare-refilled ring vs no-failover control",
		head:   "fault.failover.mring — M-Ring Paxos (ring 3 + spare), 20 Mbps of 1 KB values, permanent coordinator kill: control vs detector failover",
		deploy: failoverMRing, sched: mringFailoverSchedule, variants: failoverVariants, cols: failoverCols,
	},
	{
		id:     "fault.failover.uring",
		title:  "U-Ring Paxos permanent coordinator kill: detector election + shrunk acceptor segment vs no-failover control",
		head:   "fault.failover.uring — U-Ring Paxos (3 acceptors, 4-process ring), 20 Mbps of 1 KB values, permanent coordinator kill: control vs detector failover",
		deploy: failoverURing, sched: uringFailoverSchedule, variants: failoverVariants, cols: failoverCols,
	},
}

// withDetector enables the ring-neighbor failure detector.
func withDetector(d *deploySpec) {
	if d.mring != nil {
		d.mring.Failover = failoverDetector
	} else {
		d.uring.Failover = failoverDetector
	}
}

// failoverMRing adds to faultMRing a spare (node 5) that the election
// pulls into the reconfigured ring, and subscribes the proposer to the
// group so it re-aims at the elected coordinator.
func failoverMRing() deploySpec {
	d := faultMRing()
	d.mring.Spares = []proto.NodeID{5}
	d.load.subscribed = true
	return d
}

// failoverURing moves faultURing's traffic source to the last ring
// position: the coordinator is the kill target, so the source must
// survive it.
func failoverURing() deploySpec {
	d := faultURing()
	d.load.at = len(d.uring.Ring) - 1
	return d
}

// --- M-Ring Paxos ---

// mringFailoverSchedule pins the single permanent crash on the
// coordinator (last ring position, node 2) so every seed exercises an
// election; only the kill instant varies with the seed.
func mringFailoverSchedule(seed int64) *fault.Schedule {
	return fault.Generate(seed, fault.Profile{
		Window:    faultWindow,
		Crashes:   1,
		Pinned:    []proto.NodeID{2},
		NoRestart: 1,
		Mode:      fault.Lose,
		MinDown:   20 * time.Millisecond,
		MaxDown:   80 * time.Millisecond,
	})
}

// --- U-Ring Paxos ---

// uringFailoverSchedule pins the permanent crash on the U-Ring
// coordinator (FIRST ring position, node 0). Lose mode: the election is
// exactly what makes a lossy coordinator death survivable, so unlike
// fault.uring this family does not restrict itself to lossless faults.
func uringFailoverSchedule(seed int64) *fault.Schedule {
	return fault.Generate(seed, fault.Profile{
		Window:    faultWindow,
		Crashes:   1,
		Pinned:    []proto.NodeID{0},
		NoRestart: 1,
		Mode:      fault.Lose,
		MinDown:   20 * time.Millisecond,
		MaxDown:   80 * time.Millisecond,
	})
}
