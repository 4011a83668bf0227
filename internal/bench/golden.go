package bench

// This file holds the three-layer golden regression support.
//
// Layer 1 (output): every deterministic experiment's full text output is
// pinned by a SHA-256 under internal/bench/testdata/golden/<id>.sha256.
// It also pins incidental message schedules, so it moves on any event
// reordering and may be regenerated after a deliberate model change.
//
// Layer 2 (delivery): the same run's delivery-equivalence digest (see
// deliv.go) is pinned under <id>.deliv.sha256. It captures only the
// agreed per-learner delivery sequences in the schedule-invariant window,
// so it must survive schedule-only changes untouched; a delivery-pin
// change means the protocol's ordering contract (or the experiment's
// deployment shape) changed and needs explicit justification.
//
// Layer 3 (safety): fault-injection experiments additionally pin their
// cross-replica safety digest (see safety.go) under <id>.safety.sha256.
// It captures only oracle verdicts built from schedule-invariant facts,
// so it must be identical across fault seeds and -par levels; a safety
// pin change means a prefix-consistency violation (or a deliberate
// deployment-shape change) and is never re-pinned reflexively.
//
// All layers are verified by go test ./internal/bench (TestGoldenOutputs
// / TestDeliveryEquivalence / TestSafetyGoldens) and by cmd/repro -verify,
// which checks every layer an experiment has; -update-golden regenerates
// every layer from one run.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DefaultGoldenDir is the golden-file directory relative to the repository
// root (cmd/repro's default) — the same directory the bench tests resolve
// relative to the package as "testdata/golden".
const DefaultGoldenDir = "internal/bench/testdata/golden"

// ResolveGoldenDir anchors a relative golden dir to the module root: if
// dir does not exist relative to the current directory, walk up toward
// the filesystem root looking for the directory next to a go.mod. This
// lets cmd/repro's golden flags work from any subdirectory instead of
// silently creating a stray tree wherever the process happens to run.
// Absolute paths and resolvable relative paths are returned unchanged.
func ResolveGoldenDir(dir string) string {
	if filepath.IsAbs(dir) {
		return dir
	}
	if _, err := os.Stat(dir); err == nil {
		return dir
	}
	at, err := os.Getwd()
	if err != nil {
		return dir
	}
	for {
		if _, err := os.Stat(filepath.Join(at, "go.mod")); err == nil {
			return filepath.Join(at, dir)
		}
		parent := filepath.Dir(at)
		if parent == at {
			return dir
		}
		at = parent
	}
}

// GoldenLayer is one pinned digest of an experiment run.
type GoldenLayer struct {
	Name   string // "output", "delivery", "safety"
	suffix string // pin file name after the experiment id
	digest func(r Result) string
	// Optional marks a layer an experiment may legitimately lack: an empty
	// digest then means "no pin" (only deployments that wire an oracle have
	// a safety digest). On the other layers a run that did not fail always
	// has a digest, and an empty one is reported.
	Optional bool
	diverged string // headline of a mismatch report
}

// GoldenLayers lists the layers, weakest first.
var GoldenLayers = []GoldenLayer{
	{Name: "output", suffix: ".sha256", digest: func(r Result) string { return r.SHA256 },
		diverged: "output diverged from golden"},
	// A divergence here is stronger than an output divergence: some
	// learner's agreed delivery sequence (or an experiment's deployment
	// shape) changed, which no schedule-only refactor may do silently.
	{Name: "delivery", suffix: ".deliv.sha256", digest: func(r Result) string { return r.DelivSHA256 },
		diverged: "DELIVERY SEQUENCE diverged from golden"},
	// The strongest possible regression signal: some learner's delivered
	// sequence stopped being a prefix of the agreed sequence under fault
	// injection, or a deployment changed shape.
	{Name: "safety", suffix: ".safety.sha256", digest: func(r Result) string { return r.SafetySHA256 },
		Optional: true, diverged: "SAFETY VERDICT diverged from golden"},
}

// Path returns the layer's pin file for one experiment id.
func (l GoldenLayer) Path(dir, id string) string { return filepath.Join(dir, id+l.suffix) }

// Read returns the layer's pinned digest for id, or "" with os.ErrNotExist
// wrapped when no pin file exists yet.
func (l GoldenLayer) Read(dir, id string) (string, error) {
	b, err := os.ReadFile(l.Path(dir, id))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// Pin writes r's digest on this layer as the pin for r.ID, creating dir
// as needed; a result with no digest here gets no pin (wrote = false).
func (l GoldenLayer) Pin(dir string, r Result) (wrote bool, err error) {
	hash := l.digest(r)
	if hash == "" {
		return false, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	return true, os.WriteFile(l.Path(dir, r.ID), []byte(hash+"\n"), 0o644)
}

// Verify compares results against the layer's pins in dir and returns one
// line per divergence (missing pin, mismatch, or a missing digest on a
// layer that is not Optional). Failed results are the caller's concern.
func (l GoldenLayer) Verify(dir string, results []Result) []string {
	var bad []string
	for _, r := range results {
		got := l.digest(r)
		if r.Err != nil || (got == "" && l.Optional) {
			continue
		}
		if got == "" {
			bad = append(bad, fmt.Sprintf("%s: run produced no %s digest", r.ID, l.Name))
			continue
		}
		want, err := l.Read(dir, r.ID)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%s: no %s golden (%v); run cmd/repro -update-golden", r.ID, l.Name, err))
		case want != got:
			bad = append(bad, fmt.Sprintf("%s: %s\n  got:  %s\n  want: %s", r.ID, l.diverged, got, want))
		}
	}
	return bad
}
