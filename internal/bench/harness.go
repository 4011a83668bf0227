package bench

import (
	"time"

	"repro/internal/abcast"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// pump offers application messages of a fixed size at a fixed bit rate
// through a submit callback (a proposer's Propose, a broadcaster's
// Broadcast, ...).
type pump struct {
	size   int
	rate   float64 // offered load in bits per second
	submit func(core.Value)

	env    proto.Env
	seq    int64
	tickFn func() // bound once: ticks fire at MHz aggregate, no per-tick closure
}

func (p *pump) Start(env proto.Env) {
	p.env = env
	p.tickFn = p.tick
	p.tick()
}

func (p *pump) Receive(proto.NodeID, proto.Message) {}

func (p *pump) tick() {
	if p.rate <= 0 {
		return
	}
	p.seq++
	p.submit(core.Value{
		ID:    core.ValueID(int64(p.env.ID())<<40 | p.seq),
		Bytes: p.size,
		Born:  p.env.Now(),
	})
	interval := time.Duration(float64(p.size*8) / p.rate * float64(time.Second))
	proto.AfterFree(p.env, interval, p.tickFn)
}

// abResult summarizes one atomic broadcast run, observed at a probe
// learner.
type abResult struct {
	Mbps    float64
	MsgsSec float64
	InstSec float64
	Lat     time.Duration
}

const (
	warmup  = 300 * time.Millisecond
	measure = 700 * time.Millisecond
)

// runMRing deploys M-Ring Paxos with nRing ring acceptors and nLearn
// learners, offering `offered` bits/s of msgSize messages. gc is the
// GCInterval knob (0 = protocol default, negative = off); figures pass 0,
// the GC delivery-equivalence test sweeps it.
func runMRing(rec *DelivRecorder, gc time.Duration, nRing, nLearn, msgSize int, offered float64, lc lan.Config, disk bool, dur time.Duration) abResult {
	// Learners only bump counters at delivery, so batch arrays can recycle.
	cfg := ringpaxos.MConfig{Group: 1, DiskSync: disk, RecycleBatches: true, GCInterval: gc,
		Ring: nodeIDs(0, nRing), Learners: nodeIDs(100, nLearn)}
	// Spread offered load over enough proposers that no proposer NIC
	// saturates.
	ld := load{size: msgSize, rate: offered, n: int(offered/0.9e9) + 1}
	return buildMRing(cfg, rigSpec{dep: rec.Deployment(), net: lc, load: ld}).measureAB(dur)
}

// runURing deploys U-Ring Paxos with n processes (all proposer, acceptor
// and learner). Load enters at the coordinator (the paper's best-located
// proposer): each value then crosses every link exactly once — U-Ring
// Paxos's throughput economy (§3.5.4).
func runURing(rec *DelivRecorder, gc time.Duration, n, msgSize int, offered float64, lc lan.Config, disk bool, dur time.Duration) abResult {
	cfg := ringpaxos.UConfig{DiskSync: disk, GCInterval: gc, Ring: nodeIDs(0, n), Learners: nodeIDs(0, n)}
	return buildURing(cfg, rigSpec{dep: rec.Deployment(), net: lc, load: load{size: msgSize, rate: offered}}).measureAB(dur)
}

// runLCR deploys LCR with n processes, all broadcasting.
func runLCR(rec *DelivRecorder, n, msgSize int, offered float64, lc lan.Config, disk bool, dur time.Duration) abResult {
	dep, ring := rec.Deployment(), nodeIDs(0, n)
	r := &rig{l: lan.New(lc, 1)}
	var a *abcast.LCR
	for _, id := range ring {
		a = &abcast.LCR{Ring: ring, DiskSync: disk, Trace: dep.Learner(id)}
		p := &pump{size: msgSize, rate: offered / float64(n), submit: a.Broadcast}
		r.l.AddNode(id, proto.Multi(a, p))
	}
	r.probe = &a.Tail
	r.l.Start()
	return r.measureAB(dur)
}

// runToken deploys the Totem-style token ring (Spread stand-in).
func runToken(rec *DelivRecorder, n, msgSize int, offered float64, lc lan.Config, dur time.Duration) abResult {
	dep, ring := rec.Deployment(), nodeIDs(0, n)
	r := &rig{l: lan.New(lc, 1)}
	var a *abcast.TokenRing
	for _, id := range ring {
		a = &abcast.TokenRing{Ring: ring, Group: 1, DaemonCost: 20 * time.Microsecond, Trace: dep.Learner(id)}
		p := &pump{size: msgSize, rate: offered / float64(n), submit: a.Broadcast}
		// Spread daemons are the system's CPU bottleneck (Table 3.2: 18%
		// efficiency); model them as slower processing stacks.
		r.l.AddNodeWithConfig(id, proto.Multi(a, p), lan.NodeConfig{CPUScale: 0.2, BandwidthScale: 1})
		r.l.Subscribe(1, id)
	}
	r.probe = &a.Tail
	r.l.Start()
	return r.measureAB(dur)
}

// runSPaxos deploys S-Paxos with n replicas; clients spread over replicas.
func runSPaxos(rec *DelivRecorder, gc time.Duration, n, msgSize int, offered float64, lc lan.Config, dur time.Duration) abResult {
	tmpl := abcast.SPaxos{Replicas: nodeIDs(0, n), GCJitter: 2 * time.Millisecond, GCInterval: gc}
	// S-Paxos replicas are CPU-intensive (the paper measures ~270% of a
	// core across threads; Table 3.2 caps it at 31% efficiency).
	slowStack := func(int) lan.NodeConfig { return lan.NodeConfig{CPUScale: 0.25, BandwidthScale: 1} }
	return buildSPaxos(tmpl, rigSpec{dep: rec.Deployment(), net: lc, node: slowStack,
		load: load{size: msgSize, rate: offered}}).measureAB(dur)
}

// runPaxos deploys basic Paxos: multicast wiring = Libpaxos, unicast = PFSB.
func runPaxos(rec *DelivRecorder, gc time.Duration, nAcc, nLearn, msgSize int, multicast bool, offered float64, lc lan.Config, dur time.Duration) abResult {
	// The era's Libpaxos pipelines only a handful of instances, one of the
	// reasons the paper measures it at ~3% efficiency.
	cfg := paxos.Config{Coordinator: 0, Multicast: multicast, Group: 1, GCInterval: gc, Window: 4,
		Acceptors: nodeIDs(0, nAcc), Learners: nodeIDs(100, nLearn)}
	return buildPaxos(cfg, rigSpec{dep: rec.Deployment(), net: lc, load: load{size: msgSize, rate: offered}}).measureAB(dur)
}

// bestOf sweeps offered loads and returns the best delivered result.
func bestOf(levels []float64, f func(offered float64) abResult) abResult {
	var best abResult
	for _, lv := range levels {
		r := f(lv)
		if r.Mbps > best.Mbps {
			best = r
		}
	}
	return best
}
