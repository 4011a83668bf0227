package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeSeconds is 1/50 of BENCHMARK.json's run_seconds.
const smokeSeconds = 0.3

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the program's metric and workload tables must say the
// same thing.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	var gated []string
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w.name)
		}
	}
	if len(m.Workloads) != len(gated) {
		t.Fatalf("manifest has %d workloads, program gates %d", len(m.Workloads), len(gated))
	}
	for i, w := range m.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, gated[i])
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %s: bound mismatch", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndMetrics, true)
	check("per_layer", m.PerLayer, perLayerMetrics, false)
}

// Every workload runs at 1/50 length, untraced and traced, fails nothing, and
// prints exactly the manifest's metrics; every end-to-end metric is non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a fraction of a second each")
	}
	outDir = t.TempDir()
	m := readManifest(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := w.run(w.name, 1, smokeSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, r.attempted, r.failed, r.notes)
			}
			wire := r.wire(traced)
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(wire.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, manifest lists %d", w.name, traced, len(wire.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := wire.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
				}
			}
			if traced {
				if v := wire.Metrics["trace.overhead_share"].Value; v == 0 {
					t.Errorf("%s: trace.overhead_share not reported", w.name)
				}
				if _, err := os.Stat(outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// The seed is the only source of randomness: the same seed repeats the
// simulated results exactly, another seed changes them.
func TestSeedDrivesSimulatedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sim-smr-btree three times")
	}
	p90 := func(seed int64) float64 {
		r, err := simSMRBtree.run("sim-smr-btree", seed, smokeSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		return r.e2e["lat_p90_us"]
	}
	a, again, b := p90(1), p90(1), p90(2)
	if a != again {
		t.Errorf("seed 1 gave lat_p90_us %v then %v", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 both gave lat_p90_us %v", a)
	}
}
