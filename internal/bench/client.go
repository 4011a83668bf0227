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
	"time"

	"repro/internal/client"
)

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

var clientCols = []column{colIssued, colAcked, colRetries, colNacks, colDupSup, colLost, colConsistent}

var clientVariants = []variant{
	// No liveness window: the control session hangs at a seed-dependent
	// instant, so its post-kill silence is expected, not a stall.
	{name: "control", edit: withSession(client.Config{})},
	{name: "retry", live: failoverLiveWindow, edit: withSession(client.Config{Retry: clientRetry, Deadline: clientDeadline})},
}

var clientFamilies = []family{
	{
		id:     "fault.client.mring",
		title:  "M-Ring Paxos exactly-once client across a permanent coordinator kill: retry+redirect+dedup vs no-retry control",
		head:   "fault.client.mring — M-Ring Paxos (ring 3 + spare, failover on), closed-loop exactly-once client of 1 KB commands, permanent coordinator kill: no-retry control vs retry+redirect+dedup",
		deploy: failoverMRing, sched: mringFailoverSchedule, variants: clientVariants, clients: true, cols: clientCols, fold: foldClient,
	},
	{
		id:     "fault.client.uring",
		title:  "U-Ring Paxos exactly-once client across a permanent coordinator kill: retry+redirect+dedup vs no-retry control",
		head:   "fault.client.uring — U-Ring Paxos (3 acceptors, 4-process ring, failover on), closed-loop exactly-once client of 1 KB commands, permanent coordinator kill: no-retry control vs retry+redirect+dedup",
		deploy: failoverURing, sched: uringFailoverSchedule, variants: clientVariants, clients: true, cols: clientCols, fold: foldClient,
	},
}

// withSession returns the edit both client variants share: the detector
// is on (ordering always recovers; only the client layer differs between
// runs) and the pump gives way to one closed-loop session configured by
// cfg — fire-and-forget when cfg.Retry is zero — that feeds the oracle's
// issued/acked ledger.
func withSession(cfg client.Config) func(*deploySpec) {
	return func(d *deploySpec) {
		withDetector(d)
		ses := &client.Session{Cfg: cfg}
		ses.Cfg.Bytes = d.load.size
		ses.Cfg.OnIssue, ses.Cfg.OnAck = d.orc.NoteClientIssued, d.orc.NoteClientAcked
		d.load.session = ses
	}
}

// foldClient feeds the sums the client CI budgets gate: the sessions'
// re-submission counts and retry wire bytes across every run of the
// family.
func foldClient(r *AllocResult, run *famRun) {
	st := run.rig.session.Stats
	r.ClientRetries += uint64(st.Retries)
	r.ClientExtraBytes += uint64(st.ExtraBytes)
}
