package bench

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const goldenDir = "testdata/golden"

// layer returns the named golden layer.
func layer(t *testing.T, name string) GoldenLayer {
	t.Helper()
	for _, l := range GoldenLayers {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no golden layer %q", name)
	return GoldenLayer{}
}

// goldenPoolResults regenerates the full evaluation exactly once per test
// binary and shares the results between the output-hash and
// delivery-equivalence suites, so running both gates costs one simulation
// pass.
var (
	goldenPoolOnce sync.Once
	goldenPoolRes  []Result
)

func goldenPoolResults(t *testing.T) []Result {
	t.Helper()
	if testing.Short() {
		t.Skip("regenerates the full evaluation (minutes of simulation)")
	}
	goldenPoolOnce.Do(func() { goldenPoolRes = Run(All(), Options{}) })
	for _, r := range goldenPoolRes {
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.ID, r.Err)
		}
	}
	return goldenPoolRes
}

// TestGoldenOutputs regenerates every deterministic experiment on the
// worker pool and verifies each one's full text output against its pinned
// SHA-256 under testdata/golden/. Any change to protocol logic, the LAN
// model or the event kernel that perturbs a single output byte fails
// here. After a deliberate model change, re-pin with:
//
//	go run ./cmd/repro -update-golden
func TestGoldenOutputs(t *testing.T) {
	for _, bad := range layer(t, "output").Verify(goldenDir, goldenPoolResults(t)) {
		t.Error(bad)
	}
}

// TestDeliveryEquivalence is the schedule-invariant gate: the same run's
// per-learner delivered command sequences (instance id, value id, value
// size, in delivery order, within the schedule-invariant window) must
// match the pinned <id>.deliv.sha256 digests. Unlike the output pins,
// these digests must survive changes that only reshuffle message
// schedules — GC defaults, timer reorganizations, retransmission tuning.
// A failure here means some learner's agreed delivery sequence (or an
// experiment's deployment shape) changed; that needs explicit
// justification, never a reflexive re-pin.
func TestDeliveryEquivalence(t *testing.T) {
	for _, bad := range layer(t, "delivery").Verify(goldenDir, goldenPoolResults(t)) {
		t.Error(bad)
	}
}

// TestSafetyGoldens is the strongest gate: every fault experiment's
// cross-replica safety digest must match its pinned <id>.safety.sha256.
// The digest is built from schedule-invariant oracle verdicts only, so
// no code change that merely reshapes schedules — or even changes which
// faults a seed produces — may move it. A failure means some learner
// delivered a sequence that is not a prefix of the agreed one.
func TestSafetyGoldens(t *testing.T) {
	results := goldenPoolResults(t)
	for _, bad := range layer(t, "safety").Verify(goldenDir, results) {
		t.Error(bad)
	}
	// The fault family must actually carry a digest — an experiment that
	// silently stops registering its oracle would otherwise pass by
	// vacuity.
	covered := 0
	for _, r := range results {
		if strings.HasPrefix(r.ID, "fault.") {
			if r.SafetySHA256 == "" {
				t.Errorf("%s produced no safety digest; its oracle wiring is gone", r.ID)
			}
			covered++
		}
	}
	if covered == 0 {
		t.Error("no fault.* experiments in the golden suite")
	}
}

// TestGoldenFilesMatchRegistry keeps testdata/golden and the registry in
// sync: every deterministic experiment must have a pin on every layer that
// is not optional (and fault experiments on the safety layer too), and
// every pin on disk must belong to a registered experiment (no stale
// files after a rename).
func TestGoldenFilesMatchRegistry(t *testing.T) {
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("golden dir missing: %v (run cmd/repro -update-golden)", err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sha256") {
			t.Errorf("unexpected file %s in %s", e.Name(), goldenDir)
		}
		onDisk[e.Name()] = true
	}
	for _, e := range All() {
		for _, l := range GoldenLayers {
			name := filepath.Base(l.Path(goldenDir, e.ID))
			h, err := l.Read(goldenDir, e.ID)
			switch {
			case err != nil && (!l.Optional || strings.HasPrefix(e.ID, "fault.")):
				t.Errorf("experiment %s has no %s golden pin; run cmd/repro -update-golden", e.ID, l.Name)
			case err == nil && len(h) != 64:
				t.Errorf("%s pin for %s is not a sha256 hex digest: %q", l.Name, e.ID, h)
			}
			delete(onDisk, name)
		}
	}
	for name := range onDisk {
		t.Errorf("stale golden pin %s: no such experiment", name)
	}
}

// fig32SeedHash is the SHA-256 of fig3.2's full output under the seed
// kernel (pointer-heap internal/sim + closure-based internal/lan),
// captured before the allocation-free rewrite. The golden suite replaced
// the original one-off determinism test, but the pin must still trace
// back to the seed: re-pinning fig3.2 means the (time, seq) total event
// order changed, which needs a deliberate decision, not an -update-golden
// reflex.
const fig32SeedHash = "313fd52c4c14930422d4606fc4b14ae7a62205a58e0292d658e50da82773e669"

// TestFig32PinMatchesSeedKernel guards the provenance chain at zero
// simulation cost: the committed fig3.2 pin (verified against a live run
// by TestGoldenOutputs) must equal the seed kernel's hash.
func TestFig32PinMatchesSeedKernel(t *testing.T) {
	got, err := layer(t, "output").Read(goldenDir, "fig3.2")
	if err != nil {
		t.Fatal(err)
	}
	if got != fig32SeedHash {
		t.Fatalf("fig3.2 pin diverged from the seed kernel\n got:  %s\n want: %s\n"+
			"event-order changes need a deliberate sign-off: update this constant only on purpose",
			got, fig32SeedHash)
	}
}

// TestGoldenLayerRoundTrip exercises Pin/Read/Verify on a temp dir for
// every layer: the layers live side by side in one directory without
// colliding, and each reports divergences in its own words.
func TestGoldenLayerRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/nested/golden"
	const id = "fig9.9"
	with := func(id, hash string) Result {
		return Result{ID: id, SHA256: hash, DelivSHA256: hash, SafetySHA256: hash}
	}
	for _, l := range GoldenLayers {
		pin := l.Name + "-hash"
		if wrote, err := l.Pin(dir, with(id, pin)); err != nil || !wrote {
			t.Fatalf("%s Pin = %v, %v", l.Name, wrote, err)
		}
		if wrote, err := l.Pin(dir, Result{ID: "digestless"}); err != nil || wrote {
			t.Fatalf("%s Pin of a result without a digest = %v, %v; want no pin", l.Name, wrote, err)
		}
		if _, err := l.Read(dir, "digestless"); !os.IsNotExist(err) {
			t.Errorf("%s: missing pin error = %v, want not-exist", l.Name, err)
		}
		failed := with(id, "x")
		failed.Err = io.EOF
		bad := l.Verify(dir, []Result{
			with(id, pin),        // match
			with(id, "0000"),     // mismatch
			with("absent", "11"), // no pin
			{ID: id},             // no digest: skipped on an optional layer, reported otherwise
			failed,               // failed run skipped
		})
		want := 3
		if l.Optional {
			want = 2
		}
		if len(bad) != want {
			t.Fatalf("%s Verify reported %d divergences, want %d: %v", l.Name, len(bad), want, bad)
		}
		if !strings.Contains(bad[0], l.diverged) || !strings.Contains(bad[1], "no "+l.Name+" golden") {
			t.Errorf("unexpected %s divergence messages: %v", l.Name, bad)
		}
	}
	for _, l := range GoldenLayers {
		if got, err := l.Read(dir, id); err != nil || got != l.Name+"-hash" {
			t.Errorf("%s pin clobbered by a later layer: %q, %v", l.Name, got, err)
		}
	}
}
