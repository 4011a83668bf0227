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
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
	"repro/internal/wal"
)

func init() {
	register(Experiment{ID: "fault.recovery.mring", Title: "M-Ring Paxos acceptor crash+restart: WAL replay recovers the m-quorum, volatile loss retires it and stalls", Traced: runRecoveryMRing})
	register(Experiment{ID: "fault.recovery.uring", Title: "U-Ring Paxos coordinator crash+restart: WAL replay resumes coordinatorship, volatile loss retires it and stalls", Traced: runRecoveryURing})
	register(Experiment{ID: "fault.recovery.snapshot", Title: "M-Ring Paxos learner outage past the GC trim floor: staleness eviction + snapshot catch-up vs floor-pinning control", Traced: runRecoverySnapshot})
}

// recoveryLiveWindow is the oracle's liveness window for the recovery
// families: far above one outage-plus-replay cycle (downtime is at most
// 80 ms), far below the post-crash remainder of the run (the generated
// crash fires by 550 ms of the 1 s run), so a volatile stall always
// trips it and a WAL recovery never does.
const recoveryLiveWindow = 250 * time.Millisecond

// recoveryVariant is one durability configuration of a recovery family.
type recoveryVariant struct {
	name  string
	dur   ringpaxos.Durability
	evict time.Duration // GC staleness eviction (snapshot family only)
}

var recoveryVariants = []recoveryVariant{
	{name: "volatile", dur: ringpaxos.DurVolatile},
	{name: "wal", dur: ringpaxos.DurWAL},
}

// snapshotVariants both run DurWAL; the control pins the trim floor on
// the crashed learner, the eviction run un-pins it and forces the
// snapshot path. 100 ms staleness against a >=300 ms outage makes
// eviction certain for every seed.
var snapshotVariants = []recoveryVariant{
	{name: "pin", dur: ringpaxos.DurWAL},
	{name: "evict", dur: ringpaxos.DurWAL, evict: 100 * time.Millisecond},
}

// noteRecovery folds one run into the aggregates the CI recovery budgets
// gate via cmd/repro -check-allocs: DiskBytes sums the modeled WAL bytes
// appended across every run of the family; RecoveryMS is the worst
// delivery-free gap (simulated, in milliseconds) observed in any run that
// was expected to recover — outage plus replay plus catch-up.
func noteRecovery(id string, disk uint64, gap time.Duration, recovered bool) {
	foldStats(id, func(r *AllocResult) {
		r.DiskBytes += disk
		if recovered {
			r.RecoveryMS = max(r.RecoveryMS, float64(gap)/1e6)
		}
	})
}

// recoveryRig is a faultRig plus the write-ahead logs the build wired
// (nil-free: volatile variants carry no logs) and an optional snapshot
// counter probe.
type recoveryRig struct {
	faultRig
	logs  []*wal.Log
	snaps func() int64
}

func (r *recoveryRig) walBytes() int64 {
	var n int64
	for _, l := range r.logs {
		n += l.Bytes()
	}
	return n
}

func (r *recoveryRig) replayed() int64 {
	var n int64
	for _, l := range r.logs {
		n += l.Replayed()
	}
	return n
}

func (r *recoveryRig) snapCount() int64 {
	if r.snaps == nil {
		return 0
	}
	return r.snaps()
}

// runRecoveryFamily drives one protocol through every seed's
// crash+restart schedule once per variant and prints the per-run report.
// Positions, WAL bytes, replay counts and gaps are seed-dependent
// (output golden, per seed); the verdicts — including the stalled flag —
// are not (safety golden). Runs whose variant is expected to recover
// (stall=false below) feed the worst observed gap into the CI recovery
// budget side channel.
func runRecoveryFamily(w io.Writer, rec *DelivRecorder, id, title string, seeds []int64,
	variants []recoveryVariant, stall func(v recoveryVariant) bool,
	sched func(seed int64) *fault.Schedule,
	build func(dep *DelivDeployment, orc *core.Oracle, s *fault.Schedule, v recoveryVariant) *recoveryRig) {
	t := newTable(title, "seed", "variant", "events", "minpos", "maxpos", "lost", "walbytes", "replayed", "snaps", "gapms", "stalled", "consistent")
	for _, seed := range seeds {
		for _, variant := range variants {
			orc := rec.Oracle()
			orc.SetLivenessWindow(recoveryLiveWindow)
			s := sched(seed)
			rig := build(rec.Deployment(), orc, s, variant)
			rig.l.Run(faultDur)
			orc.Seal(faultDur)
			t.row(fmt.Sprint(seed), variant.name, s.Len(), orc.MinPos(), orc.MaxPos(), rig.lost(),
				rig.walBytes(), rig.replayed(), rig.snapCount(),
				fmt.Sprintf("%.1f", float64(orc.MaxGap())/1e6),
				fmt.Sprint(orc.Stalled()), fmt.Sprint(orc.Consistent()))
			t.note("seed %d %s: %s", seed, variant.name, orc.Verdict())
			if d := orc.FirstDivergence(); d != "" {
				t.note("seed %d %s FIRST DIVERGENCE: %s", seed, variant.name, d)
			}
			noteRecovery(id, uint64(rig.walBytes()), orc.MaxGap(), !stall(variant))
		}
	}
	t.print(w)
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

// recoveryMRingRig is faultMRingRig with the variant's durability wired:
// under DurWAL every ring member carries a write-ahead log owned by the
// rig (the modeled disk survives the process crash).
func recoveryMRingRig(dep *DelivDeployment, orc *core.Oracle, s *fault.Schedule, v recoveryVariant) *recoveryRig {
	cfg := ringpaxos.MConfig{Group: 1, RecycleBatches: true, Durability: v.dur, GCEvict: v.evict}
	cfg.Ring = []proto.NodeID{0, 1, 2}
	cfg.Learners = []proto.NodeID{100, 101}
	l := lan.New(lan.DefaultConfig(), 1)
	rig := &recoveryRig{faultRig: faultRig{l: l}}
	var learnerAgents []*ringpaxos.MAgent
	for _, id := range append(append([]proto.NodeID{}, cfg.Ring...), cfg.Learners...) {
		a := &ringpaxos.MAgent{Cfg: cfg}
		if v.dur == ringpaxos.DurWAL && int(id) < len(cfg.Ring) {
			a.Log = &wal.Log{}
			rig.logs = append(rig.logs, a.Log)
		}
		for _, lid := range cfg.Learners {
			if id == lid {
				a.Trace = chainLearner(dep, orc, id)
				learnerAgents = append(learnerAgents, a)
			}
		}
		l.AddNode(id, a)
		l.Subscribe(1, id)
		rig.ids = append(rig.ids, id)
	}
	prop := &ringpaxos.MAgent{Cfg: cfg}
	p := &pump{size: 1024, rate: 20e6, submit: prop.Propose}
	l.AddNode(200, proto.Multi(prop, p))
	rig.ids = append(rig.ids, 200)
	rig.snaps = func() int64 {
		var n int64
		for _, a := range learnerAgents {
			n += a.SnapshotsInstalled
		}
		return n
	}
	if par := Par(); par > 1 {
		// Same split as faultMRingRig: ring acceptors form LP 1, learners
		// and the proposer keep LP 0.
		l.Partition(par, func(id proto.NodeID) int {
			if int(id) < len(cfg.Ring) {
				return 1
			}
			return 0
		})
	}
	l.InstallFaults(s)
	l.Start()
	return rig
}

func runRecoveryMRing(w io.Writer, rec *DelivRecorder) {
	recoveryMRingSeeds(w, rec, faultSeeds)
}

func recoveryMRingSeeds(w io.Writer, rec *DelivRecorder, seeds []int64) {
	runRecoveryFamily(w, rec, "fault.recovery.mring",
		"fault.recovery.mring — M-Ring Paxos (ring 3), 20 Mbps of 1 KB values, acceptor crash+restart with state loss: volatile retirement vs WAL replay",
		seeds, recoveryVariants, func(v recoveryVariant) bool { return v.dur == ringpaxos.DurVolatile },
		mringRecoverySchedule, recoveryMRingRig)
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

// recoveryURingRig is failoverURingRig without the detector (durability,
// not election, is under test) and with WALs on the acceptor segment in
// the wal variant.
func recoveryURingRig(dep *DelivDeployment, orc *core.Oracle, s *fault.Schedule, v recoveryVariant) *recoveryRig {
	cfg := ringpaxos.UConfig{NumAcceptors: 3, Durability: v.dur}
	const n = 4
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	l := lan.New(lan.DefaultConfig(), 1)
	rig := &recoveryRig{faultRig: faultRig{l: l}}
	for i := 0; i < n; i++ {
		a := &ringpaxos.UAgent{Cfg: cfg}
		if v.dur == ringpaxos.DurWAL && i < cfg.NumAcceptors {
			a.Log = &wal.Log{}
			rig.logs = append(rig.logs, a.Log)
		}
		a.Trace = chainLearner(dep, orc, proto.NodeID(i))
		var hs []proto.Handler
		hs = append(hs, a)
		if i == n-1 {
			p := &pump{size: 1024, rate: 20e6, submit: a.Propose}
			hs = append(hs, p)
		}
		l.AddNode(proto.NodeID(i), proto.Multi(hs...))
		rig.ids = append(rig.ids, proto.NodeID(i))
	}
	l.InstallFaults(s)
	l.Start()
	return rig
}

func runRecoveryURing(w io.Writer, rec *DelivRecorder) {
	recoveryURingSeeds(w, rec, faultSeeds)
}

func recoveryURingSeeds(w io.Writer, rec *DelivRecorder, seeds []int64) {
	runRecoveryFamily(w, rec, "fault.recovery.uring",
		"fault.recovery.uring — U-Ring Paxos (3 acceptors, 4-process ring), 20 Mbps of 1 KB values, coordinator crash+restart with state loss: volatile retirement vs WAL replay",
		seeds, recoveryVariants, func(v recoveryVariant) bool { return v.dur == ringpaxos.DurVolatile },
		uringRecoverySchedule, recoveryURingRig)
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

func runRecoverySnapshot(w io.Writer, rec *DelivRecorder) {
	recoverySnapshotSeeds(w, rec, faultSeeds)
}

func recoverySnapshotSeeds(w io.Writer, rec *DelivRecorder, seeds []int64) {
	runRecoveryFamily(w, rec, "fault.recovery.snapshot",
		"fault.recovery.snapshot — M-Ring Paxos (ring 3, WAL), 20 Mbps of 1 KB values, 300 ms learner outage: floor-pinning retransmission vs staleness eviction + snapshot catch-up",
		seeds, snapshotVariants, func(v recoveryVariant) bool { return false },
		snapshotSchedule, recoveryMRingRig)
}
