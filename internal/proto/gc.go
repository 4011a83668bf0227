package proto

// Shared garbage-collection wire messages (§3.3.7). Every ordering
// protocol that bounds its per-instance logs speaks the same two-message
// trim-floor protocol:
//
//   - VersionReport: a log consumer (learner, replica) announces the
//     highest instance it has applied. How the report travels is the
//     protocol's business — M-Ring sends it to a preferential acceptor and
//     circulates it around the acceptor ring, U-Ring pipelines it around
//     the process ring, basic Paxos sends it straight to the coordinator.
//   - TrimFloor: a process that has computed the global minimum (via
//     core.VersionTracker) tells log holders that cannot compute it
//     themselves — basic Paxos acceptors, which never see learner reports
//     — that instances up to Inst are globally applied and may be dropped.
//
// Both messages are header-sized: garbage collection must not compete
// with application traffic for bandwidth.

const gcHeaderBytes = 32 // same modeled fixed header as every protocol message

// VersionReport announces that consumer From has applied every instance
// up to and including Inst. Hops counts forwards for protocols that
// circulate the report along a ring, so circulation stops after one
// revolution. It travels as a pooled pointer (VersionReportPool).
type VersionReport struct {
	From NodeID
	Inst int64
	Hops int
}

// Size implements Message.
func (m *VersionReport) Size() int { return gcHeaderBytes }

// VersionReportPool recycles version reports. Every hop is a Send, so each
// report has one consumer at a time: a ring forwards the same pointer, and
// the hop that stops circulating it puts it back.
var VersionReportPool MsgPool[VersionReport]

// TrimFloor instructs a log holder to drop instances at or below Inst:
// every consumer has reported them applied, so no retransmission or
// recovery will ever ask for them again.
type TrimFloor struct {
	Inst int64
}

// Size implements Message.
func (m TrimFloor) Size() int { return gcHeaderBytes }
