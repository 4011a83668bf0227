package bench

// Exactly-once client workloads (fault.client.*): each seed's schedule
// Lose-kills the coordinator PERMANENTLY mid-run (the failover families'
// pinned schedules) with the ring-neighbor detector enabled in BOTH runs,
// so ordering always recovers — what differs is the client layer. A
// single closed-loop client session (internal/client) stamps every
// command with its (client id, seq) identity and runs the same schedule
// twice:
//
//   - control: retries disabled — the pre-exactly-once behavior. The
//     session always has exactly one command outstanding when the
//     coordinator dies (closed loop, zero think time), and that command
//     — or the next one, proposed at the not-yet-re-aimed view — is lost
//     with it. The oracle's at-most-once extension pins the gap:
//     unacked=1, for every seed.
//   - retry: capped-exponential-backoff retries plus redirect to the
//     newly elected coordinator (learned from the ring-change
//     propagation). Every issued command is eventually acknowledged and
//     the learners' replicated dedup table suppresses any command a
//     retry got decided twice: unacked=0, dups=0, and delivery stays
//     live through the election window.
//
// Both verdicts are seed- and -par-invariant and pinned by the safety
// golden layer; issued/acked/retry counts are seed-dependent and pinned
// per seed by the output golden. Retry counts and retry wire bytes
// aggregate into the client CI budgets through the same side channel the
// recovery budgets use (see foldStats).

import (
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

func init() {
	register(Experiment{ID: "fault.client.mring", Title: "M-Ring Paxos exactly-once client across a permanent coordinator kill: retry+redirect+dedup vs no-retry control", Traced: runClientMRing})
	register(Experiment{ID: "fault.client.uring", Title: "U-Ring Paxos exactly-once client across a permanent coordinator kill: retry+redirect+dedup vs no-retry control", Traced: runClientURing})
}

// clientRetry is the session's base acknowledgment timeout: well above
// the fault-free commit latency (no spurious duplicates in the steady
// state), well below the election time (the session, not the run's end,
// discovers the loss). The dupsup column counts retries that nevertheless
// raced a recovered in-flight original into a second decided instance;
// the deterministic suppression exercise lives in the ringpaxos dedup
// tests, which double-propose a stamped value outright.
const clientRetry = 20 * time.Millisecond

// clientDeadline stops NEW commands in the retry variant early enough
// that the last command's retries complete before the run seals — the
// retry verdict pins unacked=0 for every seed only because of it. The
// control variant runs without a deadline: its session hangs on the lost
// command long before any deadline could matter.
const clientDeadline = 900 * time.Millisecond

// clientVariants names the two runs per seed, in run order.
var clientVariants = []string{"control", "retry"}

// noteClientStats folds one run's session stats into the sums
// ci/client-budgets.json gates: the sessions' re-submission counts and
// retry wire bytes across every run of the family.
func noteClientStats(id string, st client.Stats) {
	foldStats(id, func(r *AllocResult) {
		r.ClientRetries += uint64(st.Retries)
		r.ClientExtraBytes += uint64(st.ExtraBytes)
	})
}

// clientRig is a faultRig plus the session under test and the learners'
// dedup-suppression counter.
type clientRig struct {
	faultRig
	session *client.Session
	dupSup  func() int64
}

// clientSession builds the session for one run: exactly-once retries in
// the retry variant, fire-and-forget in the control, both feeding the
// oracle's issued/acked ledger.
func clientSession(orc *core.Oracle, submit func(core.Value), coord func() proto.NodeID, retry bool) *client.Session {
	s := &client.Session{Cfg: client.Config{
		Submit:  submit,
		Coord:   coord,
		Bytes:   1024,
		OnIssue: orc.NoteClientIssued,
		OnAck:   orc.NoteClientAcked,
	}}
	if retry {
		s.Cfg.Retry = clientRetry
		s.Cfg.Deadline = clientDeadline
	}
	return s
}

// runClientFamily drives one protocol through every seed's permanent-
// kill schedule twice (control, then retry) and prints the per-run
// report. Counts are seed-dependent (output golden, per seed); the
// verdicts — including unacked=1 for every control run and unacked=0
// dups=0 for every retry run — are not (safety golden).
func runClientFamily(w io.Writer, rec *DelivRecorder, id, title string, seeds []int64,
	sched func(seed int64) *fault.Schedule,
	build func(dep *DelivDeployment, orc *core.Oracle, s *fault.Schedule, retry bool) *clientRig) {
	t := newTable(title, "seed", "variant", "issued", "acked", "retries", "nacks", "dupsup", "lost", "consistent")
	for _, seed := range seeds {
		for vi, variant := range clientVariants {
			orc := rec.Oracle()
			orc.EnableClientCheck()
			retry := vi == 1
			if retry {
				// The liveness window applies to the retry variant only:
				// the control session hangs at a seed-dependent instant,
				// so its post-kill silence is expected, not a stall.
				orc.SetLivenessWindow(failoverLiveWindow)
			}
			s := sched(seed)
			rig := build(rec.Deployment(), orc, s, retry)
			rig.l.Run(faultDur)
			orc.Seal(faultDur)
			st := rig.session.Stats
			t.row(fmt.Sprint(seed), variant, st.Issued, st.Acked, st.Retries, st.Nacks,
				rig.dupSup(), rig.lost(), fmt.Sprint(orc.Consistent()))
			t.note("seed %d %s: %s", seed, variant, orc.Verdict())
			if d := orc.FirstDivergence(); d != "" {
				t.note("seed %d %s FIRST DIVERGENCE: %s", seed, variant, d)
			}
			if d := orc.FirstDuplicate(); d != "" {
				t.note("seed %d %s FIRST DUPLICATE: %s", seed, variant, d)
			}
			noteClientStats(id, st)
		}
	}
	t.print(w)
}

// --- M-Ring Paxos ---

// clientMRingRig is failoverMRingRig with the pump replaced by an
// exactly-once client session composed on the proposer node; failover is
// enabled in both variants (only the client layer differs between runs).
func clientMRingRig(dep *DelivDeployment, orc *core.Oracle, s *fault.Schedule, retry bool) *clientRig {
	cfg := ringpaxos.MConfig{Group: 1, RecycleBatches: true}
	cfg.Ring = []proto.NodeID{0, 1, 2}
	cfg.Spares = []proto.NodeID{5}
	cfg.Learners = []proto.NodeID{100, 101}
	cfg.Failover = failoverDetector
	l := lan.New(lan.DefaultConfig(), 1)
	rig := &clientRig{faultRig: faultRig{l: l}}
	members := append(append([]proto.NodeID{}, cfg.Ring...), cfg.Spares...)
	var learners []*ringpaxos.MAgent
	for _, id := range append(members, cfg.Learners...) {
		a := &ringpaxos.MAgent{Cfg: cfg}
		for _, lid := range cfg.Learners {
			if id == lid {
				a.Trace = chainLearner(dep, orc, id)
				learners = append(learners, a)
			}
		}
		l.AddNode(id, a)
		l.Subscribe(1, id)
		rig.ids = append(rig.ids, id)
	}
	prop := &ringpaxos.MAgent{Cfg: cfg}
	ses := clientSession(orc, prop.Propose, prop.Coordinator, retry)
	l.AddNode(200, proto.Multi(prop, ses))
	l.Subscribe(1, 200)
	rig.ids = append(rig.ids, 200)
	rig.session = ses
	rig.dupSup = func() int64 {
		var n int64
		for _, a := range learners {
			n += a.DupSuppressed
		}
		return n
	}
	if par := Par(); par > 1 {
		// Same split as the failover rig: ring acceptors and the spare
		// form LP 1; learners and the client's node keep LP 0.
		l.Partition(par, func(id proto.NodeID) int {
			for _, m := range members {
				if m == id {
					return 1
				}
			}
			return 0
		})
	}
	l.InstallFaults(s)
	l.Start()
	return rig
}

func runClientMRing(w io.Writer, rec *DelivRecorder) {
	clientMRingSeeds(w, rec, faultSeeds)
}

func clientMRingSeeds(w io.Writer, rec *DelivRecorder, seeds []int64) {
	runClientFamily(w, rec, "fault.client.mring",
		"fault.client.mring — M-Ring Paxos (ring 3 + spare, failover on), closed-loop exactly-once client of 1 KB commands, permanent coordinator kill: no-retry control vs retry+redirect+dedup",
		seeds, mringFailoverSchedule, clientMRingRig)
}

// --- U-Ring Paxos ---

// clientURingRig is failoverURingRig with the pump replaced by an
// exactly-once session on node 3 (the coordinator is the kill target, so
// the client's process must survive it).
func clientURingRig(dep *DelivDeployment, orc *core.Oracle, s *fault.Schedule, retry bool) *clientRig {
	cfg := ringpaxos.UConfig{NumAcceptors: 3}
	cfg.Failover = failoverDetector
	const n = 4
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	l := lan.New(lan.DefaultConfig(), 1)
	rig := &clientRig{faultRig: faultRig{l: l}}
	var agents []*ringpaxos.UAgent
	for i := 0; i < n; i++ {
		a := &ringpaxos.UAgent{Cfg: cfg}
		a.Trace = chainLearner(dep, orc, proto.NodeID(i))
		agents = append(agents, a)
		var hs []proto.Handler
		hs = append(hs, a)
		if i == n-1 {
			ses := clientSession(orc, a.Propose, a.Coordinator, retry)
			rig.session = ses
			hs = append(hs, ses)
		}
		l.AddNode(proto.NodeID(i), proto.Multi(hs...))
		rig.ids = append(rig.ids, proto.NodeID(i))
	}
	rig.dupSup = func() int64 {
		var sum int64
		for _, a := range agents {
			sum += a.DupSuppressed
		}
		return sum
	}
	l.InstallFaults(s)
	l.Start()
	return rig
}

func runClientURing(w io.Writer, rec *DelivRecorder) {
	clientURingSeeds(w, rec, faultSeeds)
}

func clientURingSeeds(w io.Writer, rec *DelivRecorder, seeds []int64) {
	runClientFamily(w, rec, "fault.client.uring",
		"fault.client.uring — U-Ring Paxos (3 acceptors, 4-process ring, failover on), closed-loop exactly-once client of 1 KB commands, permanent coordinator kill: no-retry control vs retry+redirect+dedup",
		seeds, uringFailoverSchedule, clientURingRig)
}
