package main

import (
	"math/rand"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
	"repro/internal/smr"
)

const (
	smrClients  = 40
	smrReplicas = 2
	smrKeys     = 100_000
	smrSpan     = 1000
	smrBatch    = 7

	// Node id layout of smr.Deploy.
	smrAcceptorBase = 1000
	smrReplicaBase  = 2000
	smrRingSize     = 2
)

// smrConfig is the paper's headline deployment: even-numbered clients issue
// 1000-key range queries, odd-numbered ones 7-update batches.
func smrConfig() smr.DeployConfig {
	return smr.DeployConfig{
		Clients:          smrClients,
		Replicas:         smrReplicas,
		KeysPerPartition: smrKeys,
		Workload: func(i int) smr.Workload {
			if i%2 == 0 {
				return smr.QueryWorkload{KeySpace: smrKeys, Span: smrSpan}
			}
			return smr.UpdateWorkload{KeySpace: smrKeys, PerRequest: smrBatch}
		},
	}
}

// tracedSMR wires the unpartitioned, non-speculative deployment exactly as
// smr.Deploy does — same node ids, same order of AddNode and Subscribe, same
// configuration — with every handler and service wrapped. smr.Deploy installs
// its handlers and starts the LAN itself, so wrappers cannot be slipped under
// it; the run fails unless this deployment repeats smr.Deploy's simulated
// results exactly.
func tracedSMR(cfg smr.DeployConfig, seed int64, tr *tracer) *smr.Deployment {
	st := &tr.main
	d := &smr.Deployment{LAN: lan.New(lan.DefaultConfig(), seed), Cfg: cfg}
	mcfg := ringpaxos.MConfig{Group: 500, RecycleBatches: true, GCInterval: cfg.GCInterval}
	for i := 0; i < smrRingSize; i++ {
		mcfg.Ring = append(mcfg.Ring, proto.NodeID(smrAcceptorBase+i))
	}
	for i := 0; i < cfg.Replicas; i++ {
		mcfg.Learners = append(mcfg.Learners, proto.NodeID(smrReplicaBase+i))
	}
	for _, id := range mcfg.Ring {
		d.LAN.AddNode(id, tr.handler(&ringpaxos.MAgent{Cfg: mcfg}, lyRingpaxos))
		d.LAN.Subscribe(mcfg.Group, id)
	}
	for i := 0; i < cfg.Replicas; i++ {
		id := proto.NodeID(smrReplicaBase + i)
		rep := &smr.Replica{
			Agent:     &ringpaxos.MAgent{Cfg: mcfg},
			Service:   &tService{inner: smr.NewBTreeService(0, cfg.KeysPerPartition), st: st},
			Index:     i,
			GroupSize: cfg.Replicas,
		}
		rh := tr.handlerOn(st, rep, lyRingpaxos)
		rh.env.onSend = func(_ proto.NodeID, m proto.Message) {
			if r, ok := m.(*smr.MsgReply); ok {
				tr.mark(r.Client, "executed", d.LAN.Sim.Now())
			}
		}
		d.LAN.AddNode(id, rh)
		d.LAN.Subscribe(mcfg.Group, id)
		d.Replicas = append(d.Replicas, rep)
	}
	for i := 0; i < cfg.Clients; i++ {
		id := proto.NodeID(i + 1)
		prop := &ringpaxos.MAgent{Cfg: mcfg}
		cl := &smr.Client{
			ID:            int64(id),
			Workload:      cfg.Workload(i),
			Partitions:    1,
			PartitionSpan: cfg.KeysPerPartition,
			Submit:        prop.Propose,
		}
		d.LAN.AddNode(id, proto.Multi(tr.handler(prop, lyRingpaxos), tr.handler(cl, lyLoad)))
		d.Clients = append(d.Clients, cl)
	}
	d.LAN.Start()
	// Replica.Start pointed the agent's Deliver at the replica; time that
	// path as its own layer under the agent's handler span.
	for _, rep := range d.Replicas {
		deliver := rep.Agent.Deliver
		rep.Agent.Deliver = func(inst int64, v core.Value) {
			st.enter(lySMR)
			deliver(inst, v)
			st.exit()
		}
	}
	return d
}

func buildSMR(seed int64, tr *tracer) *simDep {
	cfg := smrConfig()
	var dep *smr.Deployment
	if tr == nil {
		dep = smr.Deploy(cfg, lan.DefaultConfig(), seed)
	} else {
		dep = tracedSMR(cfg, seed, tr)
	}
	l := dep.LAN
	d := &simDep{lan: l, load: &load{}, coord: smrAcceptorBase + smrRingSize - 1, replica: smrReplicaBase}
	orc := core.NewOracle()
	d.oracles = []*core.Oracle{orc}
	for i := 0; i < smrRingSize; i++ {
		id := proto.NodeID(smrAcceptorBase + i)
		d.nodes = append(d.nodes, id)
		d.agents = append(d.agents, unwrap(l.Node(id).Handler()).(*ringpaxos.MAgent))
	}
	for i, rep := range dep.Replicas {
		d.nodes = append(d.nodes, proto.NodeID(smrReplicaBase+i))
		d.agents = append(d.agents, rep.Agent)
		rep.Agent.Trace = oracleTrace(orc)
	}
	d.probe = dep.Replicas[0].Agent
	d.orderLat = new([]time.Duration)
	d.probe.Latencies = d.orderLat
	if tr != nil {
		// The probe learner's delivery is the "ordered" stage of a chain;
		// the reply leaving the responsible replica is "executed".
		deliver := d.probe.Deliver
		d.probe.Deliver = func(inst int64, v core.Value) {
			tr.mark(int64(v.ID)>>32, "ordered", l.Sim.Now())
			deliver(inst, v)
		}
	}
	for i, cl := range dep.Clients {
		cl := cl
		d.nodes = append(d.nodes, proto.NodeID(cl.ID))
		cs := &clientState{key: cl.ID, class: i % 2}
		propose := cl.Submit
		cl.Submit = func(v core.Value) {
			if !d.load.submit(tr, cs, cl.Completed, cl.LatencySum, l.Sim.Now()) {
				return
			}
			if tr != nil {
				tr.main.enter(lyRingpaxos)
				defer tr.main.exit()
			}
			propose(v)
		}
	}
	return d
}

var simSMRBtree = simWorkload{
	chunkPerSecond: 1700 * time.Millisecond,
	build:          buildSMR,
	layer: func(m metrics, plain, traced *simPass, tr *tracer) {
		simSec := plain.sum.clock.Seconds()
		m["smr.query_cmds_per_s"] = float64(plain.delta.class[0]) / simSec
		m["smr.update_cmds_per_s"] = float64(plain.delta.class[1]) / simSec
		self, _ := tr.totals()
		m["smr.exec_self_ns_per_cmd"] = float64(self[lyExec]) / float64(traced.sum.cmds)
	},
	probes: func(m metrics, _ *simPass, seed int64, seconds float64) {
		m["btree.probe_ns_per_query1000"], m["btree.probe_ns_per_update"] = probeBTree(seed, seconds)
	},
}

// probeBTree times the B+-tree alone on the workload's tree size: 1000-key
// range counts, and insert/delete operations drawn like smr.UpdateWorkload's.
func probeBTree(seed int64, seconds float64) (nsPerQuery, nsPerUpdate float64) {
	var t btree.Tree
	for k := int64(0); k < smrKeys; k++ {
		t.Insert(k, k)
	}
	rng := rand.New(rand.NewSource(seed))
	queries, updates := probeIters(2_000, seconds), probeIters(40_000, seconds)
	sink := 0
	t0 := time.Now()
	for i := 0; i < queries; i++ {
		lo := rng.Int63n(smrKeys - smrSpan)
		sink += t.Count(lo, lo+smrSpan-1)
	}
	nsPerQuery = float64(time.Since(t0)) / float64(queries)
	t0 = time.Now()
	for i := 0; i < updates; i++ {
		k := rng.Int63n(smrKeys)
		if rng.Intn(2) == 0 {
			t.Insert(k, k)
		} else {
			t.Delete(k)
		}
	}
	nsPerUpdate = float64(time.Since(t0)) / float64(updates)
	if sink < 0 {
		panic("unreachable")
	}
	return nsPerQuery, nsPerUpdate
}
