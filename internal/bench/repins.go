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
// The current re-pin covers the five U-Ring families, and only them: the
// U-Ring coordinator became self-clocked (ringpaxos.UAgent.enqueue). A
// value that finds the ready coordinator idle — nothing staged, no
// instance open — leaves at once in its own instance with no flush timer;
// values arriving behind an open instance still batch and leave with the
// window release. Instance boundaries therefore move: the coordinator
// cuts more, smaller instances, so the four families that pin delivery
// (fault.uring, fault.failover.uring, fault.recovery.uring, soak.uring)
// moved their delivery pins with the output, and fault.client.uring moved
// its output only. Checked by diffing every learner's value-id sequence of
// every seed against the parent: value ORDER is unchanged everywhere; a
// run differs only in how far it got (the new one delivers a few values
// more by the end of the window) and, across a permanent coordinator
// kill, in which tail values died with the coordinator (1-3 values the
// parent still held in staging had already left). Safety pins, every
// fig*/tab* pin and all ci/budgets.json ceilings held.
const repinURingSelfClocked = "U-Ring coordinator is self-clocked: a value arriving at an idle coordinator (nothing staged, no open instance) is proposed at once instead of waiting out BatchDelay, so instances are cut at different points; per-learner value order is unchanged"

var outputRepins = map[string]string{
	"fault.uring":          repinURingSelfClocked,
	"fault.failover.uring": repinURingSelfClocked,
	"fault.recovery.uring": repinURingSelfClocked,
	"fault.client.uring":   repinURingSelfClocked,
	"soak.uring":           repinURingSelfClocked,
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
