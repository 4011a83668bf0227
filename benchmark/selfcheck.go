package main

import (
	"fmt"
	"math"
	"os"
	"strings"
)

// selfCheck runs every workload twice — untraced and traced — with the same
// seed and compares the two sets. On sim-* workloads every exact per-layer
// metric and both latency percentiles must repeat bit for bit: anything else
// fails the check. (That a traced pass repeats its untraced pass's simulated
// results is checked inside every traced run, which fails otherwise.) A
// host-time end-to-end metric that differs by more than its bound is reported
// as unresolved but does not fail the check: these are two single runs, and
// on a shared box single runs of unchanged code differ by up to 40 %; the
// bounds are for medians of ten. It returns the process exit code.
func selfCheck(seed int64, seconds float64) int {
	type pair struct{ e2e, layer metrics }
	runSet := func() (map[string]pair, bool) {
		set, ok := map[string]pair{}, true
		for _, w := range workloads {
			var p pair
			for _, traced := range []bool{false, true} {
				r, err := w.run(w.name, seed, seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
					return nil, false
				}
				for _, n := range r.notes {
					fmt.Fprintf(os.Stderr, "%s: FAIL: %s\n", w.name, n)
				}
				ok = ok && r.failed == 0
				if traced {
					p.layer = r.layer
				} else {
					p.e2e = r.e2e
				}
			}
			set[w.name] = p
		}
		return set, ok
	}
	first, ok1 := runSet()
	second, ok2 := runSet()
	if first == nil || second == nil {
		return 1
	}
	bad, unresolved := 0, 0
	complain := func(w, metric, why string, a, b float64) {
		bad++
		fmt.Fprintf(os.Stderr, "selfcheck: %s %s: %v then %v: %s\n", w, metric, a, b, why)
	}
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		simulated := strings.HasPrefix(w.name, "sim-")
		for _, d := range endToEndMetrics {
			va, vb := a.e2e[d.name], b.e2e[d.name]
			switch {
			case simulated && strings.HasPrefix(d.name, "lat_"):
				if va != vb {
					complain(w.name, d.name, "simulated time must repeat exactly", va, vb)
				}
			case math.Abs(va-vb) > d.bound*math.Abs(va):
				unresolved++
				fmt.Fprintf(os.Stderr, "selfcheck: %s %s: %v then %v: unresolved, two single runs differ by more than the bound %v\n",
					w.name, d.name, va, vb, d.bound)
			}
		}
		for _, d := range perLayerMetrics {
			if va, vb := a.layer[d.name], b.layer[d.name]; simulated && d.exact && va != vb {
				complain(w.name, d.name, "exact metric must repeat exactly", va, vb)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "selfcheck: %d workloads x 2 sets, %d exact metrics differ, %d host-time metrics unresolved, correctness %v/%v\n",
		len(workloads), bad, unresolved, ok1, ok2)
	if bad > 0 || !ok1 || !ok2 {
		return 1
	}
	return 0
}
