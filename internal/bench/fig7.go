package bench

import (
	"fmt"
	"io"

	"repro/internal/lan"
)

func init() {
	register(Experiment{ID: "fig7.2", Title: "peak performance of four Paxos libraries (cloud study)", Traced: runFig7_2})
	register(Experiment{ID: "fig7.3", Title: "S-Paxos in heterogeneous configurations", Traced: runFig7_3})
	register(Experiment{ID: "fig7.4", Title: "OpenReplica-style in heterogeneous configurations", Traced: runFig7_4})
	register(Experiment{ID: "fig7.5", Title: "U-Ring Paxos in heterogeneous configurations", Traced: runFig7_5})
	register(Experiment{ID: "fig7.6", Title: "Libpaxos in heterogeneous configurations", Traced: runFig7_6})
	register(Experiment{ID: "fig7.7", Title: "Libpaxos+ (batching) in heterogeneous configurations", Traced: runFig7_7})
}

// The Chapter 7 study runs the four open-source library architectures on
// heterogeneous (cloud-like) machines. We model EC2 instance classes with
// per-node CPU scaling: "small" nodes run at 40% speed.
//
//   - S-Paxos            -> internal/abcast.SPaxos
//   - OpenReplica        -> basic unicast Paxos, no batching (per client op)
//   - U-Ring Paxos       -> internal/ringpaxos.UAgent
//   - Libpaxos/Libpaxos+ -> basic multicast Paxos without/with batching
func runFig7_2(w io.Writer, rec *DelivRecorder) {
	t := newTable("Fig 7.2 — peak throughput (Mbps) by message size, homogeneous cluster",
		"library", "200B", "4KB", "32KB")
	lc := lan.DefaultConfig()
	row := func(name string, f func(size int) abResult) {
		t.row(name,
			fmt.Sprintf("%.0f", f(200).Mbps),
			fmt.Sprintf("%.0f", f(4<<10).Mbps),
			fmt.Sprintf("%.0f", f(32<<10).Mbps))
	}
	row("S-Paxos", func(s int) abResult { return runSPaxos(rec, 0, 3, s, 400e6, lc, 0) })
	row("OpenReplica-style", func(s int) abResult {
		return bestOf([]float64{20e6, 60e6}, func(o float64) abResult {
			return runPaxos(rec, 0, 3, 3, s, false, o, lc, 0)
		})
	})
	row("U-Ring Paxos", func(s int) abResult { return runURing(rec, 0, 3, s, 900e6, lc, false, 0) })
	row("Libpaxos", func(s int) abResult {
		return bestOf([]float64{50e6, 150e6, 300e6}, func(o float64) abResult {
			return runPaxos(rec, 0, 3, 3, s, true, o, lc, 0)
		})
	})
	t.note("paper: U-Ring Paxos peaks highest; S-Paxos benefits from large messages; unbatched libraries trail")
	t.print(w)
}

// hetero runs one library with a chosen node slowed to 40% CPU and reports
// throughput relative to the homogeneous run.
func hetero(w io.Writer, fig, name string, run func(lc lan.Config, slow int) abResult) {
	t := newTable(fmt.Sprintf("Fig %s — %s with one slow (40%%%% CPU) machine", fig, name),
		"configuration", "Mbps", "vs homogeneous")
	lc := lan.DefaultConfig()
	base := run(lc, -1)
	t.row("homogeneous", fmt.Sprintf("%.0f", base.Mbps), "100%")
	// Fixed slot order: ranging over a map here would randomize row order
	// run to run and break the golden-output pins.
	for slot, label := range []string{"slow leader/coordinator", "slow acceptor/replica"} {
		r := run(lc, slot)
		t.row(label, fmt.Sprintf("%.0f", r.Mbps), pct(r.Mbps, base.Mbps))
	}
	t.print(w)
}

func runFig7_3(w io.Writer, rec *DelivRecorder) {
	hetero(w, "7.3", "S-Paxos", func(lc lan.Config, slow int) abResult {
		return runSPaxosHet(rec, 3, 8<<10, 400e6, lc, slow)
	})
}

func runFig7_4(w io.Writer, rec *DelivRecorder) {
	hetero(w, "7.4", "OpenReplica-style (unicast, unbatched)", func(lc lan.Config, slow int) abResult {
		return runPaxosHet(rec, 3, 3, 4<<10, false, 60e6, lc, slow, 0)
	})
}

func runFig7_5(w io.Writer, rec *DelivRecorder) {
	hetero(w, "7.5", "U-Ring Paxos", func(lc lan.Config, slow int) abResult {
		return runURingHet(rec, 3, 32<<10, 700e6, lc, slow)
	})
}

func runFig7_6(w io.Writer, rec *DelivRecorder) {
	hetero(w, "7.6", "Libpaxos (multicast, unbatched)", func(lc lan.Config, slow int) abResult {
		return runPaxosHet(rec, 3, 3, 4<<10, true, 150e6, lc, slow, 0)
	})
}

func runFig7_7(w io.Writer, rec *DelivRecorder) {
	hetero(w, "7.7", "Libpaxos+ (multicast, batched)", func(lc lan.Config, slow int) abResult {
		return runPaxosHet(rec, 3, 3, 4<<10, true, 300e6, lc, slow, 32<<10)
	})
}
