package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

func init() {
	register(Experiment{ID: "fig3.2", Title: "one-to-many: unicast vs multicast vs pipeline", Traced: runFig3_2})
	register(Experiment{ID: "fig3.3", Title: "packet loss vs aggregate rate, 1/2/5 multicast senders", Traced: runFig3_3})
	register(Experiment{ID: "fig3.4", Title: "many-to-one: pipeline vs unicast across packet sizes", Traced: runFig3_4})
	register(Experiment{ID: "fig3.7", Title: "Ring Paxos vs other atomic broadcast protocols", Traced: runFig3_7})
	register(Experiment{ID: "tab3.2", Title: "protocol efficiency at 10 receivers", Traced: runTab3_2})
	register(Experiment{ID: "fig3.8", Title: "impact of processes in the ring", Traced: runFig3_8})
	register(Experiment{ID: "fig3.9", Title: "impact of synchronous disk writes", Traced: runFig3_9})
	register(Experiment{ID: "fig3.10", Title: "message size impact on M-Ring Paxos", Traced: runFig3_10})
	register(Experiment{ID: "fig3.11", Title: "message size impact on U-Ring Paxos", Traced: runFig3_11})
	register(Experiment{ID: "fig3.12", Title: "socket buffer size impact on M-Ring Paxos", Traced: runFig3_12})
	register(Experiment{ID: "fig3.13", Title: "socket buffer size impact on U-Ring Paxos", Traced: runFig3_13})
	register(Experiment{ID: "fig3.14", Title: "flow control trace with a slow learner", Traced: runFig3_14})
	register(Experiment{ID: "tab3.3", Title: "CPU and memory per role, M-Ring Paxos", Traced: runTab3_3})
	register(Experiment{ID: "tab3.4", Title: "CPU and memory per role, U-Ring Paxos", Traced: runTab3_4})
	register(Experiment{ID: "tab3.1", Title: "analytic comparison of atomic broadcast algorithms", Traced: runTab3_1})
}

// counter collects received bytes at a plain receiver.
type counter struct{ bytes int64 }

func (c *counter) Start(proto.Env) {}
func (c *counter) Receive(_ proto.NodeID, m proto.Message) {
	c.bytes += int64(m.Size())
}

// forwarder receives and forwards to a successor (pipeline pattern).
type forwarder struct {
	next  proto.NodeID
	last  bool
	bytes int64
	env   proto.Env
}

func (f *forwarder) Start(env proto.Env) { f.env = env }
func (f *forwarder) Receive(_ proto.NodeID, m proto.Message) {
	f.bytes += int64(m.Size())
	if !f.last {
		f.env.Send(f.next, m)
	}
}

func runFig3_2(w io.Writer, _ *DelivRecorder) {
	t := newTable("Fig 3.2 — one-to-many, 8 KB packets: per-receiver Mbps (sender CPU %)",
		"receivers", "unicast", "multicast", "pipeline")
	size := 8 << 10
	for _, n := range []int{1, 5, 10, 15, 20, 25} {
		row := []any{n}
		for _, pattern := range []string{"unicast", "multicast", "pipeline"} {
			l := lan.New(lan.DefaultConfig(), 1)
			var recvBytes func() int64
			switch pattern {
			case "unicast", "multicast":
				cs := make([]*counter, n)
				for i := 0; i < n; i++ {
					cs[i] = &counter{}
					l.AddNode(proto.NodeID(i+1), cs[i])
					l.Subscribe(1, proto.NodeID(i+1))
				}
				recvBytes = func() int64 { return cs[n-1].bytes }
				isM := pattern == "multicast"
				sender := &proto.HandlerFunc{}
				var env proto.Env
				sender.OnStart = func(e proto.Env) { env = e }
				l.AddNode(0, sender)
				l.Start()
				// Offer 950 Mbps aggregate from the sender; unicast
				// round-robins that budget over the receivers (the NIC is
				// the shared resource, §3.3.1).
				rr := 0
				var tick func()
				tick = func() {
					m := proto.Raw{Bytes: size}
					if isM {
						env.Multicast(1, m)
					} else {
						env.SendUDP(proto.NodeID(rr%n+1), m)
						rr++
					}
					env.After(time.Duration(float64(size*8)/950e6*1e9), tick)
				}
				tick()
			case "pipeline":
				fs := make([]*forwarder, n)
				for i := 0; i < n; i++ {
					fs[i] = &forwarder{next: proto.NodeID(i + 2), last: i == n-1}
					l.AddNode(proto.NodeID(i+1), fs[i])
				}
				recvBytes = func() int64 { return fs[n-1].bytes }
				sender := &proto.HandlerFunc{}
				var env proto.Env
				sender.OnStart = func(e proto.Env) { env = e }
				l.AddNode(0, sender)
				l.Start()
				var tick func()
				tick = func() {
					env.Send(1, proto.Raw{Bytes: size})
					env.After(time.Duration(float64(size*8)/950e6*1e9), tick)
				}
				tick()
			}
			l.Run(warmup)
			b0 := recvBytes()
			cpu0 := l.Node(0).CPUBusy()
			l.Run(measure)
			tput := mbps(recvBytes()-b0, measure)
			cpu := float64(l.Node(0).CPUBusy()-cpu0) / float64(measure) * 100
			row = append(row, fmt.Sprintf("%.0f (%.0f%%)", tput, cpu))
		}
		t.row(row...)
	}
	t.note("paper: unicast per-receiver throughput decays ~1/n; multicast and pipeline stay flat")
	t.print(w)
}

func runFig3_3(w io.Writer, _ *DelivRecorder) {
	t := newTable("Fig 3.3 — multicast loss%% vs aggregate rate (14 receivers)",
		"rate Mbps", "1 sender", "2 senders", "5 senders")
	size := 8 << 10
	for _, rate := range []float64{200e6, 400e6, 600e6, 800e6, 950e6} {
		row := []any{fmt.Sprintf("%.0f", rate/1e6)}
		for _, senders := range []int{1, 2, 5} {
			lc := lan.DefaultConfig()
			lc.UDPBuf = 64 << 10 // modest socket buffers provoke drops
			l := lan.New(lc, int64(senders))
			for i := 0; i < 14; i++ {
				// Receivers drain barely below wire speed (the paper's
				// kernel-buffer overflow regime: ~840 Mbps consumption).
				l.AddNodeWithConfig(proto.NodeID(100+i), &counter{},
					lan.NodeConfig{CPUScale: 0.13, BandwidthScale: 1})
				l.Subscribe(1, proto.NodeID(100+i))
			}
			const burst = 16
			for s := 0; s < senders; s++ {
				h := &proto.HandlerFunc{}
				per := time.Duration(float64(burst*size*8) / (rate / float64(senders)) * float64(time.Second))
				h.OnStart = func(env proto.Env) {
					var tick func()
					tick = func() {
						// Independent senders emit jittered bursts.
						for b := 0; b < burst; b++ {
							env.Multicast(1, proto.Raw{Bytes: size})
						}
						env.After(per/2+time.Duration(env.Rand().Int63n(int64(per))), tick)
					}
					tick()
				}
				l.AddNode(proto.NodeID(s), h)
			}
			l.Start()
			l.Run(warmup + measure)
			var recv, drop int64
			for i := 0; i < 14; i++ {
				st := l.Node(proto.NodeID(100 + i)).Stats()
				recv += st.MsgsRecv
				drop += st.MsgsDropped
			}
			row = append(row, pct(float64(drop), float64(drop+recv)))
		}
		t.row(row...)
	}
	t.note("paper: with more senders, loss starts at lower aggregate rates")
	t.print(w)
}

func runFig3_4(w io.Writer, _ *DelivRecorder) {
	t := newTable("Fig 3.4 — many-to-one (4 senders): receiver Mbps / receiver CPU %",
		"packet", "unicast", "pipeline")
	for _, size := range []int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10} {
		row := []any{fmt.Sprintf("%dB", size)}
		for _, pattern := range []string{"unicast", "pipeline"} {
			l := lan.New(lan.DefaultConfig(), 1)
			sink := &counter{}
			l.AddNode(0, sink)
			const rate = 220e6 // per sender: 880 Mbps aggregate
			if pattern == "unicast" {
				for s := 1; s <= 4; s++ {
					h := &proto.HandlerFunc{}
					h.OnStart = func(env proto.Env) {
						var tick func()
						tick = func() {
							env.Send(0, proto.Raw{Bytes: size})
							env.After(time.Duration(float64(size*8)/rate*float64(time.Second)), tick)
						}
						tick()
					}
					l.AddNode(proto.NodeID(s), h)
				}
			} else {
				// Pipeline: each sender appends its message to the one from
				// its predecessor (batching), so the receiver sees one big
				// packet per round.
				for s := 1; s <= 4; s++ {
					s := s
					next := proto.NodeID(0)
					if s < 4 {
						next = proto.NodeID(s + 1)
					}
					h := &proto.HandlerFunc{}
					var env proto.Env
					h.OnStart = func(e proto.Env) {
						env = e
						if s == 1 {
							var tick func()
							tick = func() {
								env.Send(next, proto.Raw{Bytes: size})
								env.After(time.Duration(float64(size*8)/rate*float64(time.Second)), tick)
							}
							tick()
						}
					}
					h.OnReceive = func(_ proto.NodeID, m proto.Message) {
						env.Send(next, proto.Raw{Bytes: m.Size() + size})
					}
					l.AddNode(proto.NodeID(s), h)
				}
			}
			l.Start()
			l.Run(warmup)
			b0 := sink.bytes
			c0 := l.Node(0).CPUBusy()
			l.Run(measure)
			tput := mbps(sink.bytes-b0, measure)
			cpu := float64(l.Node(0).CPUBusy()-c0) / float64(measure) * 100
			row = append(row, fmt.Sprintf("%.0f / %.0f%%", tput, cpu))
		}
		t.row(row...)
	}
	t.note("paper: pipeline beats unicast — batching cuts receiver CPU for small packets and balances links for large ones")
	t.print(w)
}

// tab 3.2 message sizes per protocol.
var bestMsgSize = map[string]int{
	"LCR": 32 << 10, "U-Ring Paxos": 32 << 10, "M-Ring Paxos": 8 << 10,
	"S-Paxos": 32 << 10, "Spread": 16 << 10, "PFSB": 200, "Libpaxos": 4 << 10,
}

func protoTput(rec *DelivRecorder, name string, receivers int) abResult {
	lc := lan.DefaultConfig()
	size := bestMsgSize[name]
	levels := []float64{300e6, 600e6, 900e6}
	switch name {
	case "M-Ring Paxos":
		return bestOf(levels, func(o float64) abResult {
			return runMRing(rec, 0, 3, receivers, size, o, lc, false, 0)
		})
	case "U-Ring Paxos":
		return bestOf(levels, func(o float64) abResult {
			return runURing(rec, 0, receivers, size, o, lc, false, 0)
		})
	case "LCR":
		return bestOf(levels, func(o float64) abResult {
			return runLCR(rec, receivers, size, o, lc, false, 0)
		})
	case "S-Paxos":
		return bestOf(levels, func(o float64) abResult {
			return runSPaxos(rec, 0, receivers, size, o, lc, 0)
		})
	case "Spread":
		return bestOf(levels, func(o float64) abResult {
			return runToken(rec, receivers, size, o, lc, 0)
		})
	case "Libpaxos":
		return bestOf([]float64{50e6, 100e6, 200e6}, func(o float64) abResult {
			return runPaxos(rec, 0, 3, receivers, size, true, o, lc, 0)
		})
	case "PFSB":
		return bestOf([]float64{20e6, 50e6, 100e6}, func(o float64) abResult {
			return runPaxos(rec, 0, 3, receivers, size, false, o, lc, 0)
		})
	}
	return abResult{}
}

var fig37Protocols = []string{"M-Ring Paxos", "U-Ring Paxos", "LCR", "Libpaxos", "S-Paxos", "Spread", "PFSB"}

func runFig3_7(w io.Writer, rec *DelivRecorder) {
	t := newTable("Fig 3.7 — max throughput (Mbps) vs number of receivers",
		append([]string{"protocol"}, "5", "10", "20")...)
	t2 := newTable("Fig 3.7 (right) — messages/second delivered",
		append([]string{"protocol"}, "5", "10", "20")...)
	for _, p := range fig37Protocols {
		row := []any{p}
		row2 := []any{p}
		for _, n := range []int{5, 10, 20} {
			r := protoTput(rec, p, n)
			row = append(row, fmt.Sprintf("%.0f", r.Mbps))
			row2 = append(row2, fmt.Sprintf("%.0f", r.MsgsSec))
		}
		t.row(row...)
		t2.row(row2...)
	}
	t.note("paper: ring/multicast protocols stay near wire speed independent of receivers;")
	t.note("Libpaxos/PFSB/S-Paxos/Spread trail by 3x-30x")
	t.print(w)
	t2.print(w)
}

func runTab3_2(w io.Writer, rec *DelivRecorder) {
	t := newTable("Tab 3.2 — efficiency at 10 receivers (paper: LCR 91%, U-RP 90%, M-RP 90%, S-Paxos 31%, Spread 18%, PFSB 4%, Libpaxos 3%)",
		"protocol", "msg size", "Mbps", "efficiency")
	for _, p := range fig37Protocols {
		r := protoTput(rec, p, 10)
		t.row(p, fmt.Sprintf("%d", bestMsgSize[p]), fmt.Sprintf("%.0f", r.Mbps), pct(r.Mbps, 1000))
	}
	t.print(w)
}

func runFig3_8(w io.Writer, rec *DelivRecorder) {
	t := newTable("Fig 3.8 — throughput (Mbps) and latency vs ring size",
		"processes", "M-RP", "U-RP", "LCR", "lat M-RP", "lat U-RP", "lat LCR")
	lc := lan.DefaultConfig()
	for _, n := range []int{3, 5, 10, 20, 30} {
		m := runMRing(rec, 0, n, 5, 8<<10, 850e6, lc, false, 0)
		u := runURing(rec, 0, n, 32<<10, 900e6, lc, false, 0)
		l := runLCR(rec, n, 32<<10, 900e6, lc, false, 0)
		t.row(n,
			fmt.Sprintf("%.0f", m.Mbps), fmt.Sprintf("%.0f", u.Mbps), fmt.Sprintf("%.0f", l.Mbps),
			m.Lat, u.Lat, l.Lat)
	}
	t.note("paper: M-Ring Paxos throughput constant; U-RP/LCR decrease slightly; latency grows with ring size, least for M-RP")
	t.print(w)
}

func runFig3_9(w io.Writer, rec *DelivRecorder) {
	t := newTable("Fig 3.9 — synchronous disk writes: latency vs ring size (throughput disk-bound ~270 Mbps)",
		"processes", "M-RP Mbps", "M-RP lat", "U-RP lat", "LCR lat")
	lc := lan.DefaultConfig()
	for _, n := range []int{3, 5, 7, 9, 11} {
		m := runMRing(rec, 0, n, 3, 8<<10, 200e6, lc, true, 0)
		u := runURing(rec, 0, n, 32<<10, 200e6, lc, true, 0)
		l := runLCR(rec, n, 32<<10, 200e6, lc, true, 0)
		t.row(n, fmt.Sprintf("%.0f", m.Mbps), m.Lat, u.Lat, l.Lat)
	}
	t.note("paper: all disk-bound at ~270 Mbps; M-RP lowest latency (parallel writes), U-RP/LCR sequential along ring")
	t.print(w)
}

func runFig3_10(w io.Writer, rec *DelivRecorder) { msgSizeSweep(w, rec, true) }
func runFig3_11(w io.Writer, rec *DelivRecorder) { msgSizeSweep(w, rec, false) }

func msgSizeSweep(w io.Writer, rec *DelivRecorder, mring bool) {
	name, fig := "U-Ring Paxos", "3.11"
	sizes := []int{200, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 32 << 10}
	if mring {
		name, fig = "M-Ring Paxos", "3.10"
		sizes = sizes[:5]
	}
	t := newTable(fmt.Sprintf("Fig %s — message size impact on %s", fig, name),
		"size", "Mbps", "latency", "msgs/s", "batches/s")
	lc := lan.DefaultConfig()
	for _, s := range sizes {
		var r abResult
		if mring {
			r = runMRing(rec, 0, 3, 5, s, 900e6, lc, false, 0)
		} else {
			r = runURing(rec, 0, 3, s, 900e6, lc, false, 0)
		}
		t.row(fmt.Sprintf("%dB", s), fmt.Sprintf("%.0f", r.Mbps), r.Lat,
			fmt.Sprintf("%.0f", r.MsgsSec), fmt.Sprintf("%.0f", r.InstSec))
	}
	t.note("paper: throughput rises with message size to a knee (8 KB M-RP, 32 KB U-RP); small messages ride batches")
	t.print(w)
}

func runFig3_12(w io.Writer, rec *DelivRecorder) { bufSweep(w, rec, true) }
func runFig3_13(w io.Writer, rec *DelivRecorder) { bufSweep(w, rec, false) }

func bufSweep(w io.Writer, rec *DelivRecorder, mring bool) {
	name, fig := "U-Ring Paxos", "3.13"
	if mring {
		name, fig = "M-Ring Paxos", "3.12"
	}
	t := newTable(fmt.Sprintf("Fig %s — socket buffer size impact on %s", fig, name),
		"buffer", "Mbps", "latency")
	for _, buf := range []int{100 << 10, 1 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20} {
		lc := lan.DefaultConfig()
		var r abResult
		if mring {
			lc.UDPBuf = buf
			r = runMRing(rec, 0, 3, 5, 8<<10, 900e6, lc, false, 0)
		} else {
			lc.TCPBuf = buf
			r = runURing(rec, 0, 3, 32<<10, 900e6, lc, false, 0)
		}
		t.row(fmt.Sprintf("%dK", buf>>10), fmt.Sprintf("%.0f", r.Mbps), r.Lat)
	}
	t.note("paper: M-RP close to max even at 0.1M; U-RP needs ~1M (TCP windowing) to reach max")
	t.print(w)
}

func runFig3_14(w io.Writer, rec *DelivRecorder) {
	// Flow-control trace: a slow learner between t=2s and t=4s of a 6s run.
	cfg := ringpaxos.MConfig{
		Ring:          []proto.NodeID{0, 1},
		Learners:      []proto.NodeID{100, 101, 102},
		Group:         1,
		FlowThreshold: 16,
		ExecCost:      1 * time.Microsecond,
	}
	r := buildMRing(cfg, rigSpec{dep: rec.Deployment(), net: lan.DefaultConfig(), load: load{size: 8 << 10, rate: 800e6}})
	slow, fast := r.mring[100], r.mring[101]
	t := newTable("Fig 3.14 — flow control trace (slow learner 2s-4s): Mbps per second and coordinator window",
		"second", "delivery@slow", "delivery@fast", "window", "drops")
	var prevSlow, prevFast int64
	var prevDrops int64
	for sec := 0; sec < 6; sec++ {
		if sec == 2 {
			slow.Cfg.ExecCost = 120 * time.Microsecond // learner slows down
		}
		if sec == 4 {
			slow.Cfg.ExecCost = time.Microsecond // restores its rate
		}
		r.l.Run(time.Second)
		d := r.drops()
		t.row(sec+1,
			fmt.Sprintf("%.0f", mbps(slow.DeliveredBytes-prevSlow, time.Second)),
			fmt.Sprintf("%.0f", mbps(fast.DeliveredBytes-prevFast, time.Second)),
			r.mring[1].Window(), d-prevDrops)
		prevSlow, prevFast = slow.DeliveredBytes, fast.DeliveredBytes
		prevDrops = d
	}
	t.note("paper: the coordinator halves its window on notifications, all learners slow together, and recovery restores the rate")
	t.print(w)
}

// cpuShares runs a warmup and the measurement window and returns a
// function reporting a node's CPU busy share of the window.
func cpuShares(r *rig) func(id proto.NodeID) string {
	r.l.Run(warmup)
	base := map[proto.NodeID]time.Duration{}
	for _, id := range r.ids {
		base[id] = r.l.Node(id).CPUBusy()
	}
	r.l.Run(measure)
	return func(id proto.NodeID) string {
		return pct(float64(r.l.Node(id).CPUBusy()-base[id]), float64(measure))
	}
}

func runTab3_3(w io.Writer, rec *DelivRecorder) {
	cfg := ringpaxos.MConfig{Ring: []proto.NodeID{0, 1, 2}, Learners: []proto.NodeID{100}, Group: 1}
	r := buildMRing(cfg, rigSpec{dep: rec.Deployment(), net: lan.DefaultConfig(), load: load{size: 8 << 10, rate: 900e6}})
	cpu := cpuShares(r)
	t := newTable("Tab 3.3 — CPU and memory per role at peak, M-Ring Paxos (paper: coord 88%, acceptor 24%, learner 21%, proposer 37%)",
		"role", "CPU", "store bytes")
	t.row("proposer", cpu(200), "-")
	t.row("coordinator", cpu(2), r.mring[2].StoreBytes())
	t.row("acceptor", cpu(0), r.mring[0].StoreBytes())
	t.row("learner", cpu(100), "-")
	t.print(w)
}

func runTab3_4(w io.Writer, rec *DelivRecorder) {
	cfg := ringpaxos.UConfig{Ring: nodeIDs(0, 3), Learners: nodeIDs(0, 3)}
	// Every process proposes 300 Mbps of its own.
	r := buildURing(cfg, rigSpec{dep: rec.Deployment(), net: lan.DefaultConfig(), load: load{size: 32 << 10, rate: 900e6, at: everyNode}})
	cpu := cpuShares(r)
	t := newTable("Tab 3.4 — CPU per role at peak, U-Ring Paxos (paper: ~48% per process, all roles alike)",
		"role", "CPU")
	for i := 0; i < 3; i++ {
		t.row(fmt.Sprintf("proposer-acceptor-learner %d", i), cpu(proto.NodeID(i)))
	}
	t.print(w)
}

func runTab3_1(w io.Writer, _ *DelivRecorder) {
	t := newTable("Tab 3.1 — analytic comparison (f = tolerated failures)",
		"algorithm", "class", "comm steps", "processes", "synchrony")
	rows := [][]string{
		{"LCR", "comm. history", "2f", "f+1", "strong"},
		{"Totem", "privilege", "4f+3", "2f+1", "weak"},
		{"Ring+FD", "privilege", "f^2+2f", "f(f+1)+1", "weak"},
		{"S-Paxos", "-", "5", "2f+1", "weak"},
		{"M-Ring Paxos", "-", "f+3", "2f+1", "weak"},
		{"U-Ring Paxos", "-", "5f", "2f+1", "weak"},
	}
	for _, r := range rows {
		t.row(r[0], r[1], r[2], r[3], r[4])
	}
	t.print(w)
}
