package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, id := range []string{"fig3.2", "tab3.2", "fig5.4", "fig6.3", "fig7.7"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestUnknownExperimentExits1(t *testing.T) {
	code, _, errw := runCLI(t, "-exp", "fig99.9")
	if code != 1 {
		t.Fatalf("-exp fig99.9 exit %d, want 1", code)
	}
	if !strings.Contains(errw, "unknown experiment") || !strings.Contains(errw, "fig99.9") {
		t.Errorf("stderr %q lacks diagnosis", errw)
	}
}

func TestRunOneExperiment(t *testing.T) {
	// tab3.1 is analytic (no simulation) so this stays fast.
	code, out, errw := runCLI(t, "-exp", "tab3.1")
	if code != 0 {
		t.Fatalf("-exp tab3.1 exit %d, stderr %s", code, errw)
	}
	if !strings.Contains(out, "Tab 3.1") || !strings.Contains(out, "M-Ring Paxos") {
		t.Errorf("unexpected output: %q", out)
	}
	if strings.Contains(out, "##########") {
		t.Errorf("-exp output must stay bannerless, got %q", out)
	}
	if !strings.Contains(errw, "sha256") {
		t.Errorf("stderr %q lacks the hash/timing line", errw)
	}
}

func TestJobsFlagParsing(t *testing.T) {
	// Malformed -jobs is a usage error (flag package reports it): exit 2.
	if code, _, errw := runCLI(t, "-all", "-jobs", "four"); code != 2 {
		t.Fatalf("-jobs four exit %d (stderr %s), want 2", code, errw)
	}
	// A valid -jobs value composes with -exp (it only affects pool runs).
	if code, _, _ := runCLI(t, "-jobs", "3", "-exp", "tab3.1"); code != 0 {
		t.Fatalf("-jobs 3 -exp tab3.1 exit %d, want 0", code)
	}
}

func TestJSONRequiresAllOrList(t *testing.T) {
	code, _, errw := runCLI(t, "-exp", "tab3.1", "-json")
	if code != 2 || !strings.Contains(errw, "-json only applies to -all or -list") {
		t.Fatalf("-exp -json exit %d, stderr %q; want usage error", code, errw)
	}
}

func TestListJSONCarriesProvenance(t *testing.T) {
	code, out, errw := runCLI(t, "-list", "-json")
	if code != 0 {
		t.Fatalf("-list -json exit %d, stderr %s", code, errw)
	}
	var exps []struct {
		ID           string `json:"id"`
		Title        string `json:"title"`
		Repinned     bool   `json:"repinned"`
		RepinnedNote string `json:"repinned_note"`
	}
	if err := json.Unmarshal([]byte(out), &exps); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	byID := map[string]bool{}
	for _, e := range exps {
		byID[e.ID] = true
		if note, ok := bench.RepinNote(e.ID); ok {
			if !e.Repinned || e.RepinnedNote != note {
				t.Errorf("%s: provenance note missing from -list -json (%+v)", e.ID, e)
			}
		} else if e.Repinned {
			t.Errorf("%s marked repinned without a note in the registry", e.ID)
		}
	}
	for _, id := range []string{"fig3.2", "soak.mring", "tab6.1"} {
		if !byID[id] {
			t.Errorf("-list -json missing %s", id)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, errw := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	if !strings.Contains(errw, "-update-golden") {
		t.Errorf("help text incomplete: %q", errw)
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	code, _, errw := runCLI(t)
	if code != 2 {
		t.Fatalf("no args exit %d, want 2", code)
	}
	if !strings.Contains(errw, "-exp") {
		t.Errorf("usage text missing from stderr: %q", errw)
	}
}

func TestGoldenUpdateAndVerifyRoundTrip(t *testing.T) {
	// Scoped to the analytic tab3.1 so the round trip stays fast: pin it
	// into a temp dir, verify it, then verify an unpinned experiment and
	// expect failure.
	dir := t.TempDir()
	code, out, errw := runCLI(t, "-update-golden", "-exp", "tab3.1", "-golden-dir", dir)
	// tab3.1 wires no oracle: it gets an output and a delivery pin, no
	// safety pin.
	if code != 0 || !strings.Contains(out, "pinned 1 experiments") || !strings.Contains(out, "1 output, 1 delivery, 0 safety pins") {
		t.Fatalf("-update-golden exit %d, out %q, err %q", code, out, errw)
	}
	code, out, _ = runCLI(t, "-verify", "-exp", "tab3.1", "-golden-dir", dir)
	if code != 0 || !strings.Contains(out, "match their golden hashes (output + delivery + safety)") {
		t.Fatalf("-verify exit %d, out %q", code, out)
	}
	code, _, errw = runCLI(t, "-verify", "-exp", "tab6.1", "-golden-dir", dir)
	if code != 1 || !strings.Contains(errw, "no output golden") || !strings.Contains(errw, "no delivery golden") {
		t.Fatalf("-verify on unpinned experiment: exit %d, stderr %q", code, errw)
	}
}

func TestVerifyChecksEveryLayer(t *testing.T) {
	// The single -verify flag covers every layer: corrupting any one pin
	// fails the run with that layer's own diagnosis.
	dir := t.TempDir()
	if code, out, errw := runCLI(t, "-update-golden", "-exp", "tab3.1", "-golden-dir", dir); code != 0 {
		t.Fatalf("-update-golden exit %d, out %q, err %q", code, out, errw)
	}
	tampered := bench.Result{ID: "tab3.1", SHA256: strings.Repeat("0", 64), DelivSHA256: strings.Repeat("0", 64)}
	for _, l := range bench.GoldenLayers[:2] {
		good, err := l.Read(dir, "tab3.1")
		if err != nil {
			t.Fatalf("-update-golden left no %s pin: %v", l.Name, err)
		}
		if _, err := l.Pin(dir, tampered); err != nil {
			t.Fatal(err)
		}
		code, _, errw := runCLI(t, "-verify", "-exp", "tab3.1", "-golden-dir", dir)
		if code != 1 || !strings.Contains(errw, "diverged from golden") || !strings.Contains(errw, good) {
			t.Fatalf("tampered %s pin: exit %d, stderr %q", l.Name, code, errw)
		}
		if l.Name == "delivery" && !strings.Contains(errw, "DELIVERY SEQUENCE diverged") {
			t.Errorf("delivery divergence lacks the louder diagnosis: %q", errw)
		}
		if err := os.WriteFile(l.Path(dir, "tab3.1"), []byte(good+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code, _, errw := runCLI(t, "-verify", "-exp", "tab3.1", "-golden-dir", dir); code != 0 {
		t.Fatalf("restored pins: exit %d, stderr %q", code, errw)
	}
}

func TestAllocsFlag(t *testing.T) {
	// tab3.1 is analytic, so the alloc profile stays fast; the JSON must
	// carry the MemStats fields and the output hash.
	code, out, errw := runCLI(t, "-allocs", "tab3.1")
	if code != 0 {
		t.Fatalf("-allocs tab3.1 exit %d, stderr %s", code, errw)
	}
	var results []struct {
		ID      string `json:"id"`
		Mallocs uint64 `json:"mallocs"`
		SHA256  string `json:"sha256"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].ID != "tab3.1" {
		t.Fatalf("unexpected results: %+v", results)
	}
	if results[0].Mallocs == 0 || len(results[0].SHA256) != 64 {
		t.Errorf("profile looks empty: %+v", results[0])
	}
}

func TestAllocsUnknownExperiment(t *testing.T) {
	code, _, errw := runCLI(t, "-allocs", "fig99.9")
	if code != 1 || !strings.Contains(errw, "unknown experiment") {
		t.Fatalf("exit %d stderr %q, want unknown-experiment failure", code, errw)
	}
}

// writeBudgets drops a budget file into a temp dir and returns its path.
func writeBudgets(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "budgets.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckBudgetsWithinBudget(t *testing.T) {
	// tab3.1 is analytic; any generous malloc ceiling holds.
	path := writeBudgets(t, `[{"id": "tab3.1", "max_mallocs": 100000000}]`)
	code, out, errw := runCLI(t, "-check-budgets", path)
	if code != 0 {
		t.Fatalf("-check-budgets exit %d, stderr %s", code, errw)
	}
	if !strings.Contains(errw, "all 1 budgets hold") || !strings.Contains(errw, "ok   tab3.1") {
		t.Errorf("stderr %q lacks the verdicts", errw)
	}
	var results []struct {
		ID      string `json:"id"`
		Mallocs uint64 `json:"mallocs"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].ID != "tab3.1" || results[0].Mallocs == 0 {
		t.Fatalf("unexpected results: %+v", results)
	}
}

func TestCheckBudgetsExceededBudgetExits1(t *testing.T) {
	path := writeBudgets(t, `[{"id": "tab3.1", "max_mallocs": 1}]`)
	code, _, errw := runCLI(t, "-check-budgets", path)
	if code != 1 {
		t.Fatalf("-check-budgets exit %d with a 1-malloc budget, want 1", code)
	}
	if !strings.Contains(errw, "BUDGET EXCEEDED") || !strings.Contains(errw, "tab3.1") {
		t.Errorf("stderr %q lacks the violation", errw)
	}
}

func TestCheckBudgetsBadFile(t *testing.T) {
	if code, _, _ := runCLI(t, "-check-budgets", "no/such/budgets.json"); code != 1 {
		t.Fatalf("missing budget file exit %d, want 1", code)
	}
	path := writeBudgets(t, `[{"id": "fig99.9", "max_mallocs": 5}]`)
	code, _, errw := runCLI(t, "-check-budgets", path)
	if code != 1 || !strings.Contains(errw, "unknown experiment") {
		t.Fatalf("exit %d stderr %q, want unknown-experiment failure", code, errw)
	}
}

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// TestRepoBudgetFileParses keeps the in-repo CI budget file honest: it
// must parse, name only registered experiments, and give each an
// enforceable ceiling (the ceilings themselves can only be asserted by
// running the experiments, which CI does; here we check the file's shape).
func TestRepoBudgetFileParses(t *testing.T) {
	budgets, err := bench.ReadBudgets(filepath.Join(repoRoot(t), "ci/budgets.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range budgets {
		if _, ok := bench.Get(b.ID); !ok {
			t.Errorf("ci/budgets.json names unknown experiment %q", b.ID)
		}
		id := b.ID
		b.ID = ""
		if b == (bench.AllocBudget{}) {
			t.Errorf("ci/budgets.json: %s has no enforceable ceiling", id)
		}
	}
}
