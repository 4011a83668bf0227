package bench

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/psmr"
)

// psmrCell runs one fig6.3-style P-SMR cell (4 workers) at the given client
// count and partitioning, returning the measured numbers, the full delivery
// trace, and the mean window overlap (0 sequential).
func psmrCell(par, clients int) (tput float64, lat time.Duration, lines []string, overlap float64) {
	SetPar(par)
	defer SetPar(1)
	rec := &DelivRecorder{}
	dep := rec.Deployment()
	cfg := psmr.DeployConfig{Mode: psmr.PSMR, Workers: 4, Clients: clients,
		Trace: func(replica, ring int) *core.DelivTrace {
			return dep.LearnerRing(proto.NodeID(replica), ring)
		}}
	cfg.Par = Par()
	d := psmr.Deploy(cfg, lan.DefaultConfig(), 1)
	tput, lat = d.Measure(300*time.Millisecond, 700*time.Millisecond)
	return tput, lat, rec.Lines(), d.LAN.Overlap()
}

// TestParPSMRCellEquivalence requires a partitioned P-SMR run — the hardest
// rig: five rings, pacer-locked coordinators, cross-ring sync — to match the
// sequential run exactly: same throughput, same latency, and a byte-identical
// delivery trace, at -par 2 and 4.
func TestParPSMRCellEquivalence(t *testing.T) {
	seqT, seqL, seqLines, _ := psmrCell(1, 120)
	if len(seqLines) == 0 {
		t.Fatal("sequential run recorded no deliveries")
	}
	for _, par := range []int{2, 4} {
		gotT, gotL, gotLines, _ := psmrCell(par, 120)
		if gotT != seqT || gotL != seqL {
			t.Errorf("par=%d measures diverge: tput %.1f vs %.1f, lat %v vs %v",
				par, gotT, seqT, gotL, seqL)
		}
		if len(gotLines) != len(seqLines) {
			t.Fatalf("par=%d: %d delivery lines, sequential had %d", par, len(gotLines), len(seqLines))
		}
		for i := range seqLines {
			if gotLines[i] != seqLines[i] {
				t.Fatalf("par=%d delivery trace diverges at line %d:\n  par: %.200s\n  seq: %.200s",
					par, i, gotLines[i], seqLines[i])
			}
		}
	}
}

// TestParOverlapGate is the concurrency acceptance gate: partitioning the
// P-SMR rig into 4 LPs must expose a mean window overlap above 1.5 active
// LPs — the speedup bound a multi-core host could realize. Below that the
// partitioning would be deterministic but pointless.
func TestParOverlapGate(t *testing.T) {
	_, _, _, overlap := psmrCell(4, 120)
	if overlap <= 1.5 {
		t.Fatalf("mean active LPs per window = %.2f, want > 1.5", overlap)
	}
	t.Logf("overlap: %.2f active LPs per window", overlap)
}

// TestParExperimentHashEquivalence re-runs a registered multi-ring
// experiment under partitioning and requires both golden layers — the full
// output hash and the delivery digest — to be byte-identical to the
// sequential run. This is the same property cmd/repro -par N -verify
// checks across the whole registry; pinning one experiment here keeps the
// property under plain `go test`.
func TestParExperimentHashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment re-run")
	}
	e, ok := Get("fig5.5")
	if !ok {
		t.Fatal("experiment fig5.5 not registered")
	}
	run := func(par int) (string, string) {
		SetPar(par)
		defer SetPar(1)
		rec := &DelivRecorder{}
		return e.hashTraced(io.Discard, rec), rec.Digest()
	}
	seqOut, seqDeliv := run(1)
	parOut, parDeliv := run(4)
	if parOut != seqOut {
		t.Errorf("output hash diverges: par %s, sequential %s", parOut, seqOut)
	}
	if parDeliv != seqDeliv {
		t.Errorf("delivery digest diverges: par %s, sequential %s", parDeliv, seqDeliv)
	}
}
