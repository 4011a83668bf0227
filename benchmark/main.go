// Command benchmark is the repository's performance benchmark: six named
// workloads, end-to-end metrics a user of the library or of the simulator
// sees, and per-layer metrics read from public counters, from a traced pass
// and from direct probes. BENCHMARK.json at the repository root declares it;
// README.md in this directory explains every workload and metric.
//
// The driver runs
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload every
// workload runs and the last line holds one result per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// outDir receives trace-<workload>.json files and the WAL scratch
// directories. It is relative to the working directory, which the wrapper
// script sets to the checkout root.
var outDir = func() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return "out" // started inside benchmark/
	}
	return "benchmark/out"
}()

// metrics maps a metric name to its value.
type metrics map[string]float64

// result is the outcome of one workload run.
type result struct {
	attempted, failed int64
	e2e, layer        metrics
	notes             []string // failures, printed to stderr
	details           []string // sample counts and quartiles, printed to stderr
}

func newResult() *result { return &result{e2e: metrics{}, layer: metrics{}} }

func (r *result) absorb(attempted, failed int64, notes []string) {
	r.attempted += attempted
	r.failed += failed
	r.notes = append(r.notes, notes...)
}

func (r *result) fail(n int64, note string) { r.absorb(0, n, []string{note}) }

func (r *result) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// endToEnd fills the end-to-end metrics every workload reports.
func (r *result) endToEnd(setupS float64, s chunkSummary, heapMB float64) {
	r.e2e["setup_s"] = setupS
	r.e2e["host_cmds_per_s"] = s.hostCmdsPerS
	r.e2e["host_allocs_per_cmd"] = float64(s.mallocs) / float64(s.cmds)
	r.e2e["heap_live_mb"] = heapMB
	r.e2e["lat_p50_us"] = s.latP50
	r.e2e["lat_p90_us"] = s.latP90
}

// workload is one named workload. BENCHMARK.json lists the gated ones, which
// the driver runs and holds to the bounds. rt-log-wal is not gated: its
// numbers follow the box's disk, whose fsync time drifts by more than any
// bound the contract allows (README, "rt-log-wal is not gated"); it is for
// paired runs by hand.
type workload struct {
	name  string
	gated bool
	run   func(name string, seed int64, seconds float64, traced bool) (*result, error)
}

var workloads = []workload{
	{"sim-abcast", true, simAbcast.run},
	{"sim-smr-btree", true, simSMRBtree.run},
	{"sim-psmr", true, simPSMR.run},
	{"sim-failover", true, runFailover},
	{"rt-log-mem", true, rtLogMem.run},
	{"rt-log-wal", false, rtLogWAL.run},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is the wire form of one metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the object the driver reads from the last line of stdout.
type wireResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// wire renders the run's metrics: every end-to-end metric for an untraced
// run, every per-layer metric (0 where the layer does not run) for a traced
// one.
func (r *result) wire(traced bool) wireResult {
	w := wireResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEndMetrics, r.e2e
	if traced {
		defs, vals = perLayerMetrics, r.layer
	}
	for _, d := range defs {
		w.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return w
}

// environment records where the numbers were taken.
func environment() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"wal_fs":     fsType(outDir),
	}
}

// runPass runs one pass of one workload, prints its details and metrics to
// standard error and returns what goes on the wire.
func runPass(w *workload, seed int64, seconds float64, traced bool) wireResult {
	r, err := w.run(w.name, seed, seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "%s: FAIL: %s\n", w.name, n)
	}
	for _, d := range r.details {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, d)
	}
	wr := r.wire(traced)
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%s: %-36s %14.4f %s\n", w.name, n, wr.Metrics[n].Value, wr.Metrics[n].Unit)
	}
	return wr
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all of them)")
		seed      = flag.Int64("seed", 1, "seed every workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 15, "length of the measured window; work done is a fixed function of it")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and probes and reports per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two sets of results")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]")
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	env, _ := json.Marshal(environment())
	fmt.Fprintf(os.Stderr, "env: %s seed=%d seconds=%v trace=%d\n", env, *seed, *seconds, *trace)

	var out []byte
	ok := true
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		wr := runPass(w, *seed, *seconds, *trace == 1)
		ok = wr.Correct
		out, _ = json.Marshal(wr)
	} else {
		// Every workload: the untraced pass always, the traced pass with
		// -trace 1; one document keyed by workload.
		doc := map[string]wireResult{}
		for i := range workloads {
			w := &workloads[i]
			wr := runPass(w, *seed, *seconds, false)
			if *trace == 1 {
				t := runPass(w, *seed, *seconds, true)
				wr.Correct = wr.Correct && t.Correct
				wr.Attempted += t.Attempted
				wr.Failed += t.Failed
				for n, v := range t.Metrics {
					wr.Metrics[n] = v
				}
			}
			doc[w.name] = wr
			ok = ok && wr.Correct
		}
		out, _ = json.Marshal(doc)
	}
	fmt.Println(string(out))
	if !ok {
		os.Exit(1)
	}
}
