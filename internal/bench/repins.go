package bench

// outputRepins is the re-pin audit trail: one entry per experiment whose
// OUTPUT golden hash was deliberately regenerated, with the PR-scoped
// justification. cmd/repro -list surfaces these notes (text and JSON) so
// a reviewer can audit which artifacts moved in a re-pin and why, long
// after the commit that moved them. Delivery goldens have no entries
// here on purpose: they are expected to survive re-pins byte-identical,
// and a delivery change needs its own justification in the PR
// description, not a one-liner.
//
// Entries describe the most recent deliberate re-pin only; a future
// re-pin replaces the map wholesale (git history keeps the past).
//
// The current re-pin covers a single experiment: basic Paxos in the
// multicast wiring no longer pools the Phase 2B it sends over SendUDP.
// The fault layer's 1% datagram duplication delivered the same pointer to
// the coordinator twice; the first delivery recycled it, so the duplicate
// was read after it had been zeroed or handed to another sender. The old
// pin (f8b34197…) was that use-after-recycle schedule and only reproduced
// while sync.Pool kept handing the same object back; the new one
// (922f7a87…) is what a never-recycled 2B produces every time. The
// delivery and safety digests stayed byte-identical.
const repinPaxos2B = "multicast-mode Phase 2B is no longer pooled: a duplicated datagram was recycled on first delivery and read again after reuse (use-after-recycle), which also made the old pin flaky under GC pressure"

var outputRepins = map[string]string{
	"fault.paxos": repinPaxos2B,
}

// RepinNote returns the provenance note for an experiment whose output
// golden was re-pinned in the most recent deliberate re-pin.
func RepinNote(id string) (string, bool) {
	n, ok := outputRepins[id]
	return n, ok
}

// outputAdded is the companion audit trail for experiments whose goldens
// are NEW in the most recent PR rather than re-pinned: first-time pins
// have no previous hash to audit against, so the note records what the
// family measures and why its digests look the way they do. Like
// outputRepins, a future PR that adds experiments replaces the map
// wholesale.
var outputAdded = map[string]string{}

// AddedNote returns the provenance note for an experiment whose goldens
// were first pinned in the most recent PR.
func AddedNote(id string) (string, bool) {
	n, ok := outputAdded[id]
	return n, ok
}
