package bench

// Fault-injection workloads: the third experiment class, built to flush
// out crash-path bugs rather than reproduce a paper figure. Each fault
// experiment runs one ordering protocol under several seeded fault
// schedules (internal/fault): datagram drop/dup/delay, process freezes,
// crashes that destroy volatile state, and link partitions that heal —
// all replayable from the seed, so the runs are golden-pinned like every
// figure. A cross-replica safety oracle (core.Oracle) is chained behind
// every learner's delivery trace; its verdict — prefix consistency
// across all learners — is built from schedule-invariant facts only and
// pinned as the safety golden layer (<id>.safety.sha256), byte-identical
// across fault seeds and -par levels.
//
// Schedules respect each protocol's recovery envelope:
//
//   - M-Ring Paxos retransmits on demand (learner gap recovery), so it
//     gets the full menu: volatile-state-losing learner crashes, an
//     early learner freeze, and background datagram loss + delay.
//   - U-Ring Paxos has no retransmission path — every message crosses
//     each link exactly once over TCP — so it only gets lossless faults:
//     a ring-process freeze and a partition (TCP frames are held and
//     re-pumped, never dropped).
//   - Basic Paxos (multicast wiring) self-heals through learn requests,
//     so it gets acceptor/learner crashes plus datagram loss + dup.
//   - S-Paxos keeps its dissemination tables across a crash (modeled
//     durable, see abcast.SPaxos.LoseVolatile), so it gets a replica
//     freeze, a volatile-state-losing replica crash, and a partition.

import (
	"time"

	"repro/internal/abcast"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

var faultCols = []column{colEvents, colMinPos, colMaxPos, colLost, colConsistent}

var faultFamilies = []family{
	{
		id:     "fault.mring",
		title:  "M-Ring Paxos under learner crash/freeze + datagram loss/delay: safety oracle",
		head:   "fault.mring — M-Ring Paxos, 20 Mbps of 1 KB values under seeded learner crash/freeze + 1% loss",
		deploy: faultMRing, sched: mringFaultSchedule, cols: faultCols,
	},
	{
		id:     "fault.uring",
		title:  "U-Ring Paxos under ring freeze + partition (lossless faults only): safety oracle",
		head:   "fault.uring — U-Ring Paxos (3 acceptors, 4-process ring), 20 Mbps of 1 KB values under seeded freeze + partition",
		deploy: faultURing, sched: uringFaultSchedule, cols: faultCols,
	},
	{
		id:     "fault.paxos",
		title:  "basic Paxos under acceptor/learner crash + datagram loss/dup: safety oracle",
		head:   "fault.paxos — basic Paxos (3 acceptors, 2 learners, multicast), 10 Mbps of 512 B values under seeded crash + 2% loss / 1% dup",
		deploy: faultPaxos, sched: paxosFaultSchedule, cols: faultCols,
	},
	{
		id:     "fault.spaxos",
		title:  "S-Paxos under replica crash/freeze + partition: safety oracle",
		head:   "fault.spaxos — S-Paxos (3 replicas), 10 Mbps of 512 B values under seeded replica crash/freeze + partition",
		deploy: faultSPaxos, sched: spaxosFaultSchedule, cols: faultCols,
	},
}

// The four base deployments every fault and soak family starts from.

// faultMRing: ring of 3, two learners, a 20 Mbps proposer of 1 KB values.
func faultMRing() deploySpec {
	return deploySpec{
		mring: &ringpaxos.MConfig{Group: 1, RecycleBatches: true,
			Ring: []proto.NodeID{0, 1, 2}, Learners: []proto.NodeID{100, 101}},
		rigSpec: rigSpec{net: lan.DefaultConfig(), load: load{size: 1024, rate: 20e6}},
	}
}

// faultURing: 4-process ring with 3 acceptors, the same load entering at
// the coordinator.
func faultURing() deploySpec {
	return deploySpec{
		uring:   &ringpaxos.UConfig{NumAcceptors: 3, Ring: nodeIDs(0, 4), Learners: nodeIDs(0, 4)},
		rigSpec: rigSpec{net: lan.DefaultConfig(), load: load{size: 1024, rate: 20e6}},
	}
}

// faultPaxos: 3 acceptors, 2 learners, multicast wiring, a 10 Mbps
// proposer of 512 B values.
func faultPaxos() deploySpec {
	return deploySpec{
		paxos: &paxos.Config{Coordinator: 0, Multicast: true, Group: 1, Window: 8,
			Acceptors: []proto.NodeID{0, 1, 2}, Learners: []proto.NodeID{100, 101}},
		rigSpec: rigSpec{net: lan.DefaultConfig(), load: load{size: 512, rate: 10e6}},
	}
}

// faultSPaxos: 3 replicas sharing the same 10 Mbps.
func faultSPaxos() deploySpec {
	return deploySpec{
		spaxos:  &abcast.SPaxos{Replicas: []proto.NodeID{0, 1, 2}},
		rigSpec: rigSpec{net: lan.DefaultConfig(), load: load{size: 512, rate: 10e6}},
	}
}

// faultDur is one fault run's length; every generated schedule resolves
// its last fault well before the end so recovery is always observed.
const faultDur = time.Second

// faultSeeds are the registered experiments' schedule seeds. The safety
// digest must be identical for any other seed set (see fault_test.go).
var faultSeeds = []int64{1, 2, 3}

// faultWindow bounds generated fault activity: after early warmup,
// resolved well before the run ends.
var faultWindow = [2]time.Duration{200 * time.Millisecond, 900 * time.Millisecond}

// --- M-Ring Paxos ---

func mringFaultSchedule(seed int64) *fault.Schedule {
	s := fault.Generate(seed, fault.Profile{
		Window:     faultWindow,
		Crashes:    2,
		CrashNodes: []proto.NodeID{100},
		Mode:       fault.Lose,
		MinDown:    20 * time.Millisecond,
		MaxDown:    80 * time.Millisecond,
		Net:        fault.Net{DropRate: 0.01, DelayRate: 0.05, DelayMax: 200 * time.Microsecond},
	})
	// An early freeze of the other learner, placed before the generated
	// window so faults never overlap: it misses multicast decisions while
	// paused and catches up through gap recovery after the thaw.
	s.CrashFor(50*time.Millisecond, 70*time.Millisecond, 101, fault.Freeze)
	return s
}

// --- U-Ring Paxos ---

func uringFaultSchedule(seed int64) *fault.Schedule {
	// No Net rules and Freeze only: U-Ring has no retransmission path, so
	// every injected fault must be lossless (held TCP frames, healed
	// partitions) for the protocol to keep its delivery promise.
	return fault.Generate(seed, fault.Profile{
		Window:     faultWindow,
		Crashes:    1,
		CrashNodes: []proto.NodeID{2},
		Mode:       fault.Freeze,
		MinDown:    20 * time.Millisecond,
		MaxDown:    60 * time.Millisecond,
		Partitions: 1,
		Minority:   []proto.NodeID{3},
		MinPart:    20 * time.Millisecond,
		MaxPart:    60 * time.Millisecond,
	})
}

// --- basic Paxos (multicast wiring) ---

func paxosFaultSchedule(seed int64) *fault.Schedule {
	// Victims are drawn per-crash from {acceptor 1, learner 101}: the
	// coordinator and an acceptor majority always survive, and the
	// learner recovers through learn requests after its volatile loss.
	return fault.Generate(seed, fault.Profile{
		Window:     faultWindow,
		Crashes:    2,
		CrashNodes: []proto.NodeID{1, 101},
		Mode:       fault.Lose,
		MinDown:    20 * time.Millisecond,
		MaxDown:    80 * time.Millisecond,
		Net:        fault.Net{DropRate: 0.02, DupRate: 0.01},
	})
}

// --- S-Paxos ---

func spaxosFaultSchedule(seed int64) *fault.Schedule {
	s := fault.Generate(seed, fault.Profile{
		Window:     faultWindow,
		Crashes:    1,
		CrashNodes: []proto.NodeID{2},
		Mode:       fault.Lose,
		MinDown:    20 * time.Millisecond,
		MaxDown:    60 * time.Millisecond,
		Partitions: 1,
		Minority:   []proto.NodeID{2},
		MinPart:    20 * time.Millisecond,
		MaxPart:    60 * time.Millisecond,
	})
	// An early freeze of replica 1, before the generated window: its TCP
	// dissemination traffic is held losslessly and drains at the thaw.
	s.CrashFor(50*time.Millisecond, 70*time.Millisecond, 1, fault.Freeze)
	return s
}
