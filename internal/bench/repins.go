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
// The current re-pin covers fig5.11's output, and only it: lan has one
// crash model. A node taken down with SetDown freezes whether or not a
// fault schedule is installed, so TCP frames sent to ring 1's frozen
// coordinator are held in its socket buffer and delivered when it
// recovers, where the old schedule-less model dropped them and leaked
// their window credit. fig5.11 is the only experiment that crashes a node
// without a schedule. Its table moves only after the recovery at 2 s:
// "received ring1" bursts to 694 Mbps where it stayed flat at 250, and
// "delivered" reads 935/685/520 where it read 993/500/500. Its delivery
// pin, every other output, delivery and safety pin, and all
// ci/budgets.json ceilings held.
var outputRepins = map[string]string{
	"fig5.11": "a down node freezes instead of leaking window credit; frames held during the outage are delivered at recovery",
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
