package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// pump offers fixed-size values at a fixed mean bit rate through submit.
// Intervals are jittered by ±1/8 from the benchmark's own seeded source, so
// the offered schedule is an input generated from -seed, not from the
// program's RNG.
type pump struct {
	size     int
	interval time.Duration
	jitter   *rand.Rand
	submit   func(core.Value)
	load     *load
	tr       *tracer

	env    proto.Env
	seq    int64
	tickFn func()
}

func (p *pump) Start(env proto.Env) {
	p.env = env
	p.tickFn = p.tick
	p.tick()
}

func (p *pump) Receive(proto.NodeID, proto.Message) {}

func (p *pump) tick() {
	if p.load.stopped {
		return
	}
	p.seq++
	id := core.ValueID(int64(p.env.ID())<<40 | p.seq)
	p.load.issued++
	p.tr.begin(int64(id), p.env.Now())
	p.submit(core.Value{ID: id, Bytes: p.size, Born: p.env.Now()})
	next := p.interval*7/8 + time.Duration(p.jitter.Int63n(int64(p.interval)/4+1))
	proto.AfterFree(p.env, next, p.tickFn)
}

const (
	abcastRing     = 3
	abcastLearners = 10
	abcastValue    = 8 << 10
	abcastOffered  = 850e6 // bits per second
)

// buildAbcast wires M-Ring Paxos atomic broadcast in the tab3.2/fig3.7
// shape: a ring of 3 acceptors, 10 learners, one proposer node.
func buildAbcast(seed int64, tr *tracer) *simDep {
	cfg := ringpaxos.MConfig{Group: 1, RecycleBatches: true}
	for i := 0; i < abcastRing; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	for i := 0; i < abcastLearners; i++ {
		cfg.Learners = append(cfg.Learners, proto.NodeID(100+i))
	}
	l := lan.New(lan.DefaultConfig(), seed)
	d := &simDep{lan: l, load: &load{}, coord: cfg.Coordinator(), replica: cfg.Learners[0]}
	orc := core.NewOracle()
	d.oracles = []*core.Oracle{orc}
	var learners []*ringpaxos.MAgent
	for _, id := range append(append([]proto.NodeID{}, cfg.Ring...), cfg.Learners...) {
		a := &ringpaxos.MAgent{Cfg: cfg}
		if id >= 100 {
			a.Trace = oracleTrace(orc)
			learners = append(learners, a)
		}
		d.agents = append(d.agents, a)
		d.nodes = append(d.nodes, id)
		l.AddNode(id, tr.handler(a, lyRingpaxos))
		l.Subscribe(cfg.Group, id)
	}
	d.probe = learners[0]
	d.probe.Deliver = func(_ int64, v core.Value) {
		now := l.Sim.Now()
		d.load.done++
		d.load.lat = append(d.load.lat, now-v.Born)
		tr.end(int64(v.ID), "delivered", now)
	}
	prop := &ringpaxos.MAgent{Cfg: cfg}
	offered := abcastOffered
	interval := time.Duration(float64(abcastValue*8) / offered * float64(time.Second))
	p := &pump{size: abcastValue, interval: interval, jitter: rand.New(rand.NewSource(seed)),
		submit: prop.Propose, load: d.load, tr: tr}
	const propID = 200
	d.nodes = append(d.nodes, propID)
	l.AddNode(propID, proto.Multi(tr.handler(prop, lyRingpaxos), tr.handler(p, lyLoad)))
	d.check = func() (failed int64, notes []string) {
		for _, a := range learners {
			if miss := d.load.issued - a.DeliveredMsgs; miss != 0 {
				failed += abs64(miss)
				notes = append(notes, "a learner did not deliver every offered value exactly once")
			}
		}
		return failed, notes
	}
	l.Start()
	return d
}

var simAbcast = simWorkload{
	chunkPerSecond: 850 * time.Millisecond,
	build:          buildAbcast,
	layer: func(m metrics, plain, _ *simPass, _ *tracer) {
		// Broadcast has no execution phase: ordering is the whole latency.
		m["ringpaxos.order_lat_p50_us"] = plain.sum.latP50
	},
}
