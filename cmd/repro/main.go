// Command repro regenerates the dissertation's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	repro -list                  list experiment ids
//	repro -exp fig3.7            run one experiment
//	repro -all                   run everything on a worker pool
//	repro -all -jobs 1           force the sequential path
//	repro -all -json             machine-readable per-experiment summary
//	repro -update-golden         re-pin the golden hashes (output + delivery + safety)
//	repro -verify                check every golden layer an experiment has:
//	                             output hash, delivery sequence, safety verdict
//	repro -verify -exp fig3.2    the same for one experiment
//	repro -allocs fig4.3         alloc-profile experiments sequentially
//	repro -check-budgets ci/budgets.json  enforce every CI ceiling
//
// ci/budgets.json carries every ceiling in one file: figure mallocs, soak
// heap + live-log ceilings, recovery WAL bytes + worst recovery gap, and
// exactly-once session retries + retry wire bytes.
//
// Experiment text goes to stdout in registry order (byte-identical for any
// -jobs value); per-experiment wall-clock and the run summary go to stderr
// so timing never perturbs the deterministic output stream.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonResult is the machine-readable per-experiment record emitted by
// -json.
type jsonResult struct {
	ID           string  `json:"id"`
	Title        string  `json:"title"`
	SHA256       string  `json:"sha256,omitempty"`
	DelivSHA256  string  `json:"deliv_sha256,omitempty"`
	SafetySHA256 string  `json:"safety_sha256,omitempty"`
	Bytes        int     `json:"bytes"`
	WallMS       float64 `json:"wall_ms"`
	Par          int     `json:"par,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// jsonExperiment is the machine-readable record emitted by -list -json.
// RepinnedNote carries the audit trail of the most recent deliberate
// output-golden re-pin, so reviewers can tell re-pinned artifacts apart
// from untouched ones without archaeology.
type jsonExperiment struct {
	ID           string `json:"id"`
	Title        string `json:"title"`
	Repinned     bool   `json:"repinned,omitempty"`
	RepinnedNote string `json:"repinned_note,omitempty"`
	Added        bool   `json:"added,omitempty"`
	AddedNote    string `json:"added_note,omitempty"`
}

type jsonSummary struct {
	Experiments int          `json:"experiments"`
	Failed      int          `json:"failed"`
	Jobs        int          `json:"jobs"`
	WallMS      float64      `json:"wall_ms"`
	AggregateMS float64      `json:"aggregate_ms"`
	Speedup     float64      `json:"speedup"`
	Results     []jsonResult `json:"results"`
}

// run is main with injectable streams and an exit code, so the CLI is
// testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments")
	exp := fs.String("exp", "", "experiment id to run (e.g. fig3.7)")
	all := fs.Bool("all", false, "run every experiment")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "worker pool size for -all and golden runs (<1 means GOMAXPROCS)")
	par := fs.Int("par", 1, "logical processes per experiment (conservative-lookahead PDES; results are byte-identical to -par 1)")
	jsonOut := fs.Bool("json", false, "with -all: emit a JSON run summary on stdout instead of experiment text")
	updateGolden := fs.Bool("update-golden", false, "regenerate the golden hashes (output, delivery AND safety) for all deterministic experiments")
	verify := fs.Bool("verify", false, "run all deterministic experiments (or -exp) and compare against every golden layer: output hash, delivery sequence, safety verdict")
	goldenDir := fs.String("golden-dir", bench.DefaultGoldenDir, "golden hash directory (relative to the repository root)")
	allocs := fs.String("allocs", "", "comma-separated experiment ids to alloc-profile sequentially (JSON on stdout)")
	checkBudgets := fs.String("check-budgets", "", "budget file (e.g. ci/budgets.json): profile each budgeted experiment and fail on any exceeded ceiling")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *jsonOut && !*all && !*list {
		fmt.Fprintln(stderr, "-json only applies to -all or -list")
		return 2
	}
	bench.SetPar(*par)

	switch {
	case *checkBudgets != "":
		return runCheckBudgets(stdout, stderr, *checkBudgets)
	case *allocs != "":
		return runAllocs(stdout, stderr, *allocs)
	case *list:
		return runList(stdout, stderr, *jsonOut)
	case *updateGolden, *verify:
		exps := bench.All()
		if *exp != "" {
			// Re-pin or check a single experiment after a targeted change.
			e, ok := bench.Get(*exp)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *exp)
				return 1
			}
			exps = []bench.Experiment{e}
		}
		return goldenRun(stdout, stderr, bench.ResolveGoldenDir(*goldenDir), *jobs, *updateGolden, exps)
	case *all:
		return runAll(stdout, stderr, *jobs, *jsonOut)
	case *exp != "":
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *exp)
			return 1
		}
		return runSingle(e, stdout, stderr)
	default:
		fs.Usage()
		return 2
	}
}

// runSingle runs one experiment streaming its text to stdout as it is
// produced (bannerless, as -exp always was) — no pool, no buffering —
// while still reporting the output hash and containing panics.
func runSingle(e bench.Experiment, stdout, stderr io.Writer) (code int) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "experiment %s panicked: %v\n", e.ID, p)
			code = 1
		}
	}()
	h := e.Hash(stdout)
	fmt.Fprintf(stderr, "done %s in %s (sha256 %s)\n",
		e.ID, time.Since(start).Round(time.Millisecond), h[:12])
	return 0
}

// runPool runs exps with the given parallelism, streaming each
// experiment's banner and text to stdout in registry order and its
// wall-clock to stderr.
func runPool(exps []bench.Experiment, jobs int, stdout, stderr io.Writer) []bench.Result {
	return bench.Run(exps, bench.Options{
		Jobs: jobs,
		OnResult: func(r bench.Result) {
			fmt.Fprintf(stdout, "\n########## %s — %s ##########\n", r.ID, r.Title)
			stdout.Write(r.Output)
			if r.Err != nil {
				fmt.Fprintf(stderr, "FAIL %s: %v\n", r.ID, r.Err)
				return
			}
			fmt.Fprintf(stderr, "done %-8s %8s  %6d bytes  %s\n",
				r.ID, r.Wall.Round(time.Millisecond), r.Bytes, r.SHA256[:12])
		},
	})
}

func runAll(stdout, stderr io.Writer, jobs int, jsonOut bool) int {
	exps := bench.All()
	start := time.Now()
	var results []bench.Result
	if jsonOut {
		// JSON mode: experiment text is summarized by its hash, so capture
		// quietly and emit one document at the end.
		results = bench.Run(exps, bench.Options{Jobs: jobs, OnResult: func(r bench.Result) {
			if r.Err != nil {
				fmt.Fprintf(stderr, "FAIL %s: %v\n", r.ID, r.Err)
			}
		}})
	} else {
		results = runPool(exps, jobs, stdout, stderr)
	}
	sum := bench.Summarize(results, jobs, time.Since(start))
	if jsonOut {
		out := jsonSummary{
			Experiments: sum.Experiments,
			Failed:      sum.Failed,
			Jobs:        sum.Jobs,
			WallMS:      float64(sum.Wall) / 1e6,
			AggregateMS: float64(sum.CPUTime) / 1e6,
			Speedup:     sum.Speedup(),
		}
		for _, r := range results {
			jr := jsonResult{ID: r.ID, Title: r.Title, SHA256: r.SHA256,
				DelivSHA256: r.DelivSHA256, SafetySHA256: r.SafetySHA256,
				Bytes: r.Bytes, WallMS: float64(r.Wall) / 1e6, Par: r.Par}
			if r.Err != nil {
				jr.Error = r.Err.Error()
			}
			out.Results = append(out.Results, jr)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	sum.Fprint(stderr)
	if sum.Failed > 0 {
		return 1
	}
	return 0
}

// runAllocs profiles the named experiments' heap allocations one at a
// time (MemStats is process-global, so the worker pool would pollute the
// numbers) and emits one JSON document on stdout.
func runAllocs(stdout, stderr io.Writer, ids string) int {
	var results []bench.AllocResult
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		e, ok := bench.Get(id)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", id)
			return 1
		}
		r := bench.ProfileAllocs(e)
		fmt.Fprintf(stderr, "done %-8s %8.0fms  %d mallocs  %d bytes\n",
			r.ID, r.WallMS, r.Mallocs, r.TotalAlloc)
		results = append(results, r)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runCheckBudgets is CI's budget gate: it profiles every experiment named
// in the budget file sequentially and fails when any ceiling — mallocs for
// the figure reproductions, live-heap peak and live-log span for the soak
// workloads, WAL bytes and recovery gap for the recovery families, retries
// and retry bytes for the client families — is exceeded. The profiles are
// emitted as JSON on stdout so a failing run leaves the numbers behind.
func runCheckBudgets(stdout, stderr io.Writer, path string) int {
	budgets, err := bench.ReadBudgets(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	results, bad := bench.CheckBudgets(budgets, stderr)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(stderr, "BUDGET EXCEEDED: "+b)
		}
		return 1
	}
	fmt.Fprintf(stderr, "all %d budgets hold\n", len(budgets))
	return 0
}

// runList prints the experiment registry; with jsonOut it emits one JSON
// record per experiment including re-pin provenance notes.
func runList(stdout, stderr io.Writer, jsonOut bool) int {
	if jsonOut {
		var out []jsonExperiment
		for _, e := range bench.All() {
			je := jsonExperiment{ID: e.ID, Title: e.Title}
			if note, ok := bench.RepinNote(e.ID); ok {
				je.Repinned, je.RepinnedNote = true, note
			}
			if note, ok := bench.AddedNote(e.ID); ok {
				je.Added, je.AddedNote = true, note
			}
			out = append(out, je)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	for _, e := range bench.All() {
		mark := ""
		if note, ok := bench.RepinNote(e.ID); ok {
			mark = "  [re-pinned: " + note + "]"
		}
		if note, ok := bench.AddedNote(e.ID); ok {
			mark += "  [new: " + note + "]"
		}
		fmt.Fprintf(stdout, "%-10s %s%s\n", e.ID, e.Title, mark)
	}
	return 0
}

// goldenRun regenerates (update=true) or verifies the golden hashes for
// the given experiments, on every layer an experiment produced a digest
// for, from one simulation pass.
func goldenRun(stdout, stderr io.Writer, dir string, jobs int, update bool, exps []bench.Experiment) int {
	start := time.Now()
	results := bench.Run(exps, bench.Options{Jobs: jobs, OnResult: func(r bench.Result) {
		if r.Err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", r.ID, r.Err)
			return
		}
		fmt.Fprintf(stderr, "done %-8s %8s  %s\n", r.ID, r.Wall.Round(time.Millisecond), r.SHA256[:12])
	}})
	sum := bench.Summarize(results, jobs, time.Since(start))
	sum.Fprint(stderr)
	if sum.Failed > 0 {
		return 1
	}
	var bad, did []string
	for _, l := range bench.GoldenLayers {
		if !update {
			bad = append(bad, l.Verify(dir, results)...)
			did = append(did, l.Name)
			continue
		}
		pins := 0
		for _, r := range results {
			wrote, err := l.Pin(dir, r)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if wrote {
				pins++
			}
		}
		did = append(did, fmt.Sprintf("%d %s", pins, l.Name))
	}
	if update {
		fmt.Fprintf(stdout, "pinned %d experiments under %s: %s pins\n", len(results), dir, strings.Join(did, ", "))
		return 0
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(stderr, b)
		}
		return 1
	}
	fmt.Fprintf(stdout, "all %d experiments match their golden hashes (%s)\n",
		len(results), strings.Join(did, " + "))
	return 0
}
