package bench

// Allocation accounting for experiments. Unlike the worker pool in
// runner.go, alloc profiling is strictly sequential: runtime.MemStats is
// process-global, so overlapping experiments would attribute each other's
// garbage. cmd/repro exposes this through -allocs and through
// -check-budgets, the CI budget gate. (Host time, allocations per command
// and latency, end to end and per layer, are the repository benchmark's
// job: BENCHMARK.json and benchmark/README.md.)

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// AllocResult is the allocation profile of one experiment run.
type AllocResult struct {
	ID string `json:"id"`
	// Mallocs is the number of heap objects allocated during the run.
	Mallocs uint64 `json:"mallocs"`
	// TotalAlloc is the number of heap bytes allocated during the run.
	TotalAlloc uint64 `json:"total_alloc_bytes"`
	// WallMS is the host wall-clock for the run in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// SHA256 is the output hash, so an alloc run doubles as a
	// determinism check against the golden pins.
	SHA256 string `json:"sha256"`

	// Soak experiments additionally report steady-state occupancy: the
	// peak/final live heap bytes sampled (after forced GC) at each soak
	// checkpoint of the GC-enabled run, and the peak/final count of live
	// per-instance log records (deterministic, also golden-pinned via the
	// experiment text). Zero for non-soak experiments.
	HeapAllocPeak uint64 `json:"heap_alloc_peak_bytes,omitempty"`
	HeapAllocEnd  uint64 `json:"heap_alloc_end_bytes,omitempty"`
	LiveLogPeak   int    `json:"live_log_peak,omitempty"`
	LiveLogEnd    int    `json:"live_log_end,omitempty"`

	// Recovery experiments additionally report the modeled write-ahead-log
	// bytes written across the family's runs and the worst simulated
	// delivery-free gap of a run that recovered (outage + replay +
	// catch-up, in milliseconds). Both are deterministic; the recovery CI
	// budgets gate them. Zero for non-recovery experiments.
	DiskBytes  uint64  `json:"wal_disk_bytes,omitempty"`
	RecoveryMS float64 `json:"recovery_ms,omitempty"`

	// Client experiments additionally report the sessions' re-submission
	// count and retry wire bytes summed across the family's runs — the
	// duplicate-proposal overhead the exactly-once layer is allowed to
	// spend. Deterministic; the client CI budgets gate them. Zero for
	// non-client experiments.
	ClientRetries    uint64 `json:"client_retries,omitempty"`
	ClientExtraBytes uint64 `json:"client_extra_bytes,omitempty"`
}

// Experiment families report aggregates that must stay out of the
// golden-pinned text — nondeterministic heap samples, sums over a family's
// runs that only the CI budgets gate — through one keyed side channel:
// while an experiment runs it folds them into a pending AllocResult under
// its id, and ProfileAllocs drains that entry once, as the base of its
// result.
var (
	sideMu    sync.Mutex
	sideStats = map[string]AllocResult{}
)

// foldStats applies fold to experiment id's pending side-channel entry.
func foldStats(id string, fold func(r *AllocResult)) {
	sideMu.Lock()
	defer sideMu.Unlock()
	r := sideStats[id]
	fold(&r)
	sideStats[id] = r
}

// takeStats returns and clears experiment id's pending entry (zero when
// the experiment folded nothing).
func takeStats(id string) AllocResult {
	sideMu.Lock()
	defer sideMu.Unlock()
	r := sideStats[id]
	delete(sideStats, id)
	return r
}

// ProfileAllocs runs e once and returns its allocation profile. The
// experiment's text output is discarded (only hashed). A GC runs before
// the measurement so garbage from earlier experiments is not charged to
// this one; Mallocs/TotalAlloc deltas themselves are unaffected by GC
// (both counters are monotonic). Soak experiments get per-checkpoint
// heap sampling enabled for the duration of the run.
func ProfileAllocs(e Experiment) AllocResult {
	SetSoakSampling(true)
	defer SetSoakSampling(false)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sum := e.Hash(io.Discard)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	r := takeStats(e.ID)
	r.ID = e.ID
	r.Mallocs = after.Mallocs - before.Mallocs
	r.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	r.WallMS = float64(wall) / 1e6
	r.SHA256 = sum
	return r
}

// AllocBudget is one entry of a CI budget file (see ci/budgets.json): a
// hard ceiling on an experiment's allocation behavior. Zero-valued limits
// are not checked, so one file can mix malloc budgets for figure
// reproductions with heap ceilings for soak workloads.
type AllocBudget struct {
	ID string `json:"id"`
	// MaxMallocs bounds heap objects allocated over the whole run.
	MaxMallocs uint64 `json:"max_mallocs,omitempty"`
	// MaxHeapAllocPeak bounds the live heap (bytes, sampled after forced
	// GC at every soak checkpoint): the flat-memory assertion. A protocol
	// whose logs grow with elapsed time again blows through it.
	MaxHeapAllocPeak uint64 `json:"max_heap_alloc_peak_bytes,omitempty"`
	// MaxLiveLogPeak bounds the deterministic count of live per-instance
	// log records at any soak checkpoint.
	MaxLiveLogPeak int `json:"max_live_log_peak,omitempty"`
	// MaxDiskBytes bounds the modeled write-ahead-log bytes a recovery
	// family writes across all its runs: the durable-logging overhead
	// assertion (a WAL that starts logging redundant records blows it).
	MaxDiskBytes uint64 `json:"max_wal_disk_bytes,omitempty"`
	// MaxRecoveryMS bounds the worst simulated delivery-free gap of a
	// recovering run, in milliseconds: outage plus replay plus catch-up.
	// A replay path that stops short-circuiting or a catch-up that
	// degrades to timeout-paced retransmission blows it.
	MaxRecoveryMS float64 `json:"max_recovery_ms,omitempty"`
	// MaxClientRetries bounds the re-submissions a client family's
	// sessions make across all its runs: a session that retries into a
	// live coordinator (timeout below commit latency) or keeps hammering
	// a dead one (backoff broken) blows it.
	MaxClientRetries uint64 `json:"max_client_retries,omitempty"`
	// MaxClientExtraBytes bounds the retry wire bytes (payload + header
	// per re-submission) of a client family.
	MaxClientExtraBytes uint64 `json:"max_client_extra_bytes,omitempty"`
}

// ReadBudgets parses a budget file.
func ReadBudgets(path string) ([]AllocBudget, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var budgets []AllocBudget
	if err := json.Unmarshal(b, &budgets); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("%s: no budgets", path)
	}
	return budgets, nil
}

// CheckBudgets profiles every budgeted experiment sequentially and returns
// one line per violated ceiling (empty = all within budget). Progress and
// per-check verdicts go to logw.
func CheckBudgets(budgets []AllocBudget, logw io.Writer) ([]AllocResult, []string) {
	var results []AllocResult
	var bad []string
	for _, budget := range budgets {
		e, ok := Get(budget.ID)
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: unknown experiment", budget.ID))
			continue
		}
		r := ProfileAllocs(e)
		results = append(results, r)
		check := func(name string, got, limit uint64) {
			if limit == 0 {
				return
			}
			if got > limit {
				bad = append(bad, fmt.Sprintf("%s: %s %d exceeds budget %d", r.ID, name, got, limit))
				fmt.Fprintf(logw, "FAIL %-12s %s %d > %d\n", r.ID, name, got, limit)
				return
			}
			fmt.Fprintf(logw, "ok   %-12s %s %d (budget %d)\n", r.ID, name, got, limit)
		}
		check("mallocs", r.Mallocs, budget.MaxMallocs)
		check("heap_alloc_peak_bytes", r.HeapAllocPeak, budget.MaxHeapAllocPeak)
		check("live_log_peak", uint64(r.LiveLogPeak), uint64(budget.MaxLiveLogPeak))
		check("wal_disk_bytes", r.DiskBytes, budget.MaxDiskBytes)
		check("client_retries", r.ClientRetries, budget.MaxClientRetries)
		check("client_extra_bytes", r.ClientExtraBytes, budget.MaxClientExtraBytes)
		if budget.MaxRecoveryMS > 0 {
			if r.RecoveryMS > budget.MaxRecoveryMS {
				bad = append(bad, fmt.Sprintf("%s: recovery_ms %.1f exceeds budget %.1f", r.ID, r.RecoveryMS, budget.MaxRecoveryMS))
				fmt.Fprintf(logw, "FAIL %-12s recovery_ms %.1f > %.1f\n", r.ID, r.RecoveryMS, budget.MaxRecoveryMS)
			} else {
				fmt.Fprintf(logw, "ok   %-12s recovery_ms %.1f (budget %.1f)\n", r.ID, r.RecoveryMS, budget.MaxRecoveryMS)
			}
		}
	}
	return results, bad
}
