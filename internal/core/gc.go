package core

import "time"

// VersionTracker is the protocol-agnostic half of the learner-version
// garbage collection of §3.3.7: every consumer of a replicated log (a
// learner, a replica) periodically reports the highest instance it has
// applied; once every expected consumer has reported, the minimum across
// reports is a global trim floor — no process will ever again need an
// instance at or below it, so per-instance logs (acceptor vote rings,
// coordinator decision logs, learner reorder buffers) can drop that prefix
// and hand pooled batch arrays back to their BatchPool.
//
// M-Ring Paxos grew this logic privately; the tracker extracts it so
// U-Ring Paxos and basic Paxos/S-Paxos can bound their logs the same way.
// Reports are stored in a small flat slice — consumer sets are a handful of
// nodes — so tracking allocates only on first report from a new consumer
// and the minimum is computed without map iteration.
//
// The zero value is an empty tracker with floor 0, ready to use.
type VersionTracker struct {
	entries []versionEntry
	floor   int64
	// evicted lists consumers dropped by EvictStale and not heard from
	// since; Expect subtracts them so Advance stops waiting on a crashed
	// consumer, which is what lets the floor pass its frontier (and what
	// forces that consumer onto the snapshot catch-up path on return).
	evicted []int64
}

type versionEntry struct {
	id      int64
	version int64
	at      time.Duration // last report time (only stamped by ReportAt)
}

// Report records consumer id's applied version, overwriting any previous
// report (mirroring the map-store semantics the M-Ring implementation had:
// a circulating stale report may transiently lower a recorded version; the
// floor only ever moves forward regardless).
func (t *VersionTracker) Report(id, version int64) {
	t.ReportAt(id, version, 0)
}

// ReportAt is Report plus a report timestamp, feeding the staleness
// eviction of EvictStale. A report from an evicted consumer re-registers
// it (the crashed learner came back and is reporting again).
func (t *VersionTracker) ReportAt(id, version int64, now time.Duration) {
	for i, e := range t.evicted {
		if e == id {
			t.evicted = append(t.evicted[:i], t.evicted[i+1:]...)
			break
		}
	}
	for i := range t.entries {
		if t.entries[i].id == id {
			t.entries[i].version = version
			t.entries[i].at = now
			return
		}
	}
	t.entries = append(t.entries, versionEntry{id: id, version: version, at: now})
}

// EvictStale drops every consumer whose last report predates cutoff and
// returns how many were dropped in this call. Evicted consumers no longer
// hold the minimum down (see Expect), so a crashed learner stops pinning
// the trim floor forever; when it reports again it is re-registered.
// Only meaningful for trackers fed via ReportAt — plain Report leaves
// timestamps at zero, so any positive cutoff would evict everyone.
func (t *VersionTracker) EvictStale(cutoff time.Duration) int {
	n := 0
	kept := t.entries[:0]
	for _, e := range t.entries {
		if e.at < cutoff {
			t.evicted = append(t.evicted, e.id)
			n++
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
	return n
}

// Expect adjusts a consumer count for staleness evictions: Advance
// callers pass Expect(len(consumers)) so the quorum of reporters shrinks
// with the evicted set. With no evictions it returns n unchanged.
func (t *VersionTracker) Expect(n int) int { return n - len(t.evicted) }

// Evicted returns how many consumers are currently evicted for staleness.
func (t *VersionTracker) Evicted() int { return len(t.evicted) }

// Version returns the recorded version for id.
func (t *VersionTracker) Version(id int64) (int64, bool) {
	for i := range t.entries {
		if t.entries[i].id == id {
			return t.entries[i].version, true
		}
	}
	return 0, false
}

// Reporters returns how many distinct consumers have reported.
func (t *VersionTracker) Reporters() int { return len(t.entries) }

// Floor returns the current trim floor: every instance below it has been
// trimmed (or was never retained). Instances >= Floor() are still live.
func (t *VersionTracker) Floor() int64 { return t.floor }

// SetFloor raises the trim floor to f (never lowers it). A coordinator
// taking over after a failover seeds its tracker with the highest floor
// its Phase 1 quorum reports, so it neither resurrects trimmed instances
// nor rescans the trimmed prefix on its first Advance.
func (t *VersionTracker) SetFloor(f int64) {
	if f > t.floor {
		t.floor = f
	}
}

// Advance computes the trimmable range. When at least expect consumers
// have reported and their minimum reported version min is at or past the
// floor, it returns [lo, hi] = [old floor, min] inclusive, moves the floor
// to min+1 and reports ok. Otherwise (missing reporters, or a stale
// minimum behind the floor) it returns ok=false and the floor is
// unchanged. The caller deletes instances lo..hi from its logs.
func (t *VersionTracker) Advance(expect int) (lo, hi int64, ok bool) {
	// No reports yet means no minimum to take, whatever expect says — the
	// sentinel min below would otherwise hand the caller a ~2^62-instance
	// trim range.
	if len(t.entries) == 0 || len(t.entries) < expect {
		return 0, 0, false
	}
	min := int64(1<<62 - 1)
	for i := range t.entries {
		if t.entries[i].version < min {
			min = t.entries[i].version
		}
	}
	if min < t.floor {
		return 0, 0, false
	}
	lo, hi = t.floor, min
	t.floor = min + 1
	return lo, hi, true
}

// Trim is the trim step every garbage-collecting protocol runs when a
// version report arrives: the tracker names the instance range every
// consumer has applied, the owner drops it from its logs, and the pooled
// batch arrays it held go back to the pool — one round late. At trim time
// every learner reported the instance applied, but one that defers
// execution (ExecCost), feeds a downstream consumer (the Multi-Ring merge)
// or has a retransmission in flight may hold the array a little longer; a
// further version round (≥ GCInterval) retires that window before reuse.
type Trim struct {
	VersionTracker
	// Pool is where the owner's Batcher draws pooled batch arrays from.
	Pool       BatchPool
	quarantine [][]Value // trimmed by the latest pass, recycled by the next
}

// Advance is VersionTracker.Advance over the learners not evicted for
// staleness. When the floor moves it first recycles what the previous
// pass retired; the caller then trims [lo, hi] from its logs and retires
// the pooled arrays it finds there.
func (t *Trim) Advance(learners int) (lo, hi int64, ok bool) {
	lo, hi, ok = t.VersionTracker.Advance(t.Expect(learners))
	if ok {
		for _, vals := range t.quarantine {
			t.Pool.Put(vals)
		}
		t.quarantine = t.quarantine[:0]
	}
	return
}

// Retire quarantines a pooled array the current pass trimmed.
func (t *Trim) Retire(vals []Value) { t.quarantine = append(t.quarantine, vals) }
