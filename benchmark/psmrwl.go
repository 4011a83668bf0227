package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/multiring"
	"repro/internal/proto"
	"repro/internal/psmr"
	"repro/internal/ringpaxos"
)

const (
	psmrWorkers   = 4
	psmrReplicas  = 2
	psmrClients   = 240
	psmrDependent = 10 // percent of commands that touch every class

	// Node id layout of psmr.Deploy.
	psmrAcceptorBase = 1000
	psmrReplicaBase  = 2000
	psmrRings        = psmrWorkers + 1 // ring psmrWorkers is the sync ring
)

func psmrConfig() psmr.DeployConfig {
	return psmr.DeployConfig{Mode: psmr.PSMR, Workers: psmrWorkers, Replicas: psmrReplicas,
		Clients: psmrClients, DependentPct: psmrDependent}
}

// tracedPSMR wires the P-SMR deployment over Multi-Ring Paxos exactly as
// psmr.Deploy's multi-ring branch does — same ids, order and configuration —
// with handlers wrapped, the merger and replica delivery paths timed as their
// own layers, and the mergers kept reachable (psmr.Deploy hides them, so
// multiring.merger_buffered_peak can only be read here). The run fails
// unless it repeats psmr.Deploy's simulated results exactly.
func tracedPSMR(cfg psmr.DeployConfig, seed int64, tr *tracer, d *simDep, trace func(replica, ring int) *core.DelivTrace) *psmr.Deployment {
	st := &tr.main
	dep := &psmr.Deployment{LAN: lan.New(lan.DefaultConfig(), seed), Cfg: cfg}
	l := dep.LAN
	ringCfgs := make([]ringpaxos.MConfig, psmrRings)
	for r := range ringCfgs {
		ringCfgs[r] = ringpaxos.MConfig{
			Ring:  []proto.NodeID{proto.NodeID(psmrAcceptorBase + r*10), proto.NodeID(psmrAcceptorBase + r*10 + 1)},
			Group: proto.GroupID(500 + r),
		}
		for i := 0; i < cfg.Replicas; i++ {
			ringCfgs[r].Learners = append(ringCfgs[r].Learners, proto.NodeID(psmrReplicaBase+i))
		}
	}
	for r := 0; r < psmrRings; r++ {
		for j := 0; j < 2; j++ {
			id := proto.NodeID(psmrAcceptorBase + r*10 + j)
			n := multiring.NewNode()
			a := &ringpaxos.MAgent{Cfg: ringCfgs[r]}
			n.AddRing(r, a)
			if j == 1 {
				n.AddPacer(&multiring.Pacer{Agent: a, Lambda: 20000, Delta: 500 * time.Microsecond})
			}
			l.AddNode(id, tr.handler(n, lyRingpaxos))
			l.Subscribe(ringCfgs[r].Group, id)
		}
	}
	for i := 0; i < cfg.Replicas; i++ {
		i := i
		id := proto.NodeID(psmrReplicaBase + i)
		rep := &psmr.Replica{Mode: cfg.Mode, Workers: cfg.Workers, Store: psmr.NewKVStore(20 * time.Microsecond),
			Index: i, GroupSize: cfg.Replicas}
		node := multiring.NewNode()
		agents := make([]*ringpaxos.MAgent, psmrRings)
		for r := range agents {
			agents[r] = &ringpaxos.MAgent{Cfg: ringCfgs[r], Trace: trace(i, r)}
			node.AddRing(r, agents[r])
			l.Subscribe(ringCfgs[r].Group, id)
		}
		starter := &proto.HandlerFunc{OnStart: func(env proto.Env) {
			rep.Start(env)
			mergers := make([]*multiring.Merger, cfg.Workers)
			for w := range mergers {
				w := w
				mg := multiring.NewMerger([]int{w, cfg.Workers}, 1)
				mg.Deliver = func(_ int64, v core.Value) {
					if i == 0 && w == 0 {
						tr.mark(int64(v.ID)>>32, "ordered", l.Sim.Now())
					}
					st.enter(lyPSMR)
					rep.OnValue(w, v)
					st.exit()
				}
				mg.Start(env)
				mergers[w] = mg
				d.mergers = append(d.mergers, mg)
			}
			push := func(w, ring int, b core.Batch) {
				st.enter(lyMultiring)
				mergers[w].Push(ring, b)
				st.exit()
			}
			for w := 0; w < cfg.Workers; w++ {
				w := w
				agents[w].DeliverBatch = func(_ int64, b core.Batch) { push(w, w, b) }
			}
			agents[cfg.Workers].DeliverBatch = func(_ int64, b core.Batch) {
				for w := 0; w < cfg.Workers; w++ {
					push(w, cfg.Workers, b)
				}
			}
		}}
		// The starter hands the replica its environment: execution
		// completions it schedules re-enter the psmr layer.
		rh := tr.handlerOn(st, starter, lyPSMR)
		rh.env.onSend = func(to proto.NodeID, _ proto.Message) { tr.mark(int64(to), "executed", l.Sim.Now()) }
		l.AddNodeWithConfig(id, proto.Multi(rh, tr.handler(node, lyRingpaxos)), lan.NodeConfig{Cores: cfg.Workers + 1})
		dep.Replicas = append(dep.Replicas, rep)
	}
	for i := 0; i < cfg.Clients; i++ {
		id := proto.NodeID(i + 1)
		node := multiring.NewNode()
		props := make([]*ringpaxos.MAgent, psmrRings)
		for r := range props {
			props[r] = &ringpaxos.MAgent{Cfg: ringCfgs[r]}
			node.AddRing(r, props[r])
		}
		cl := &psmr.Client{
			ID:       int64(id),
			Workload: &psmr.Workload{Workers: cfg.Workers, DependentPct: cfg.DependentPct},
			Rings:    cfg.Workers,
			Submit:   func(r int, v core.Value) { props[r].Propose(v) },
		}
		l.AddNode(id, proto.Multi(tr.handler(node, lyRingpaxos), tr.handler(cl, lyLoad)))
		dep.Clients = append(dep.Clients, cl)
	}
	l.Start()
	return dep
}

// buildPSMRPar is buildPSMR with the library deployment partitioned into par
// logical processes (0 or 1: sequential).
func buildPSMRPar(seed int64, tr *tracer, par int) *simDep {
	cfg := psmrConfig()
	cfg.Par = par
	d := &simDep{load: &load{}, coord: psmrAcceptorBase + 1, replica: psmrReplicaBase}
	// One oracle per ring: each ring's learners (one per replica) must
	// deliver prefix-consistent sequences.
	d.oracles = make([]*core.Oracle, psmrRings)
	for r := range d.oracles {
		d.oracles[r] = core.NewOracle()
	}
	trace := func(_, ring int) *core.DelivTrace { return oracleTrace(d.oracles[ring]) }
	var dep *psmr.Deployment
	if tr == nil {
		cfg.Trace = trace
		dep = psmr.Deploy(cfg, lan.DefaultConfig(), seed)
	} else {
		dep = tracedPSMR(cfg, seed, tr, d, trace)
	}
	l := dep.LAN
	d.lan = l
	for r := 0; r < psmrRings; r++ {
		for j := 0; j < 2; j++ {
			id := proto.NodeID(psmrAcceptorBase + r*10 + j)
			d.nodes = append(d.nodes, id)
			d.agents = append(d.agents, unwrap(l.Node(id).Handler()).(*multiring.Node).Agent(r))
		}
	}
	for i := range dep.Replicas {
		d.nodes = append(d.nodes, proto.NodeID(psmrReplicaBase+i))
	}
	d.extra = func(c *counters) {
		for _, rep := range dep.Replicas {
			c.barrierWaits += rep.BarrierWaits
			c.dedupHits += rep.DedupHits
		}
	}
	for _, cl := range dep.Clients {
		cl := cl
		d.nodes = append(d.nodes, proto.NodeID(cl.ID))
		cs := &clientState{key: cl.ID}
		propose := cl.Submit
		cl.Submit = func(ring int, v core.Value) {
			if !d.load.submit(tr, cs, cl.Completed, cl.LatencySum, l.Sim.Now()) {
				return
			}
			if tr != nil {
				tr.main.enter(lyRingpaxos)
				defer tr.main.exit()
			}
			propose(ring, v)
		}
	}
	return d
}

func buildPSMR(seed int64, tr *tracer) *simDep { return buildPSMRPar(seed, tr, 0) }

var simPSMR = simWorkload{
	chunkPerSecond: 150 * time.Millisecond,
	build:          buildPSMR,
	layer: func(m metrics, plain, traced *simPass, tr *tracer) {
		m["psmr.barrier_waits_per_kcmd"] = 1000 * float64(plain.delta.barrierWaits) / float64(plain.sum.cmds)
		m["psmr.dedup_hits"] = float64(plain.delta.dedupHits)
		self, _ := tr.totals()
		m["psmr.replica_handler_ns_per_cmd"] = float64(self[lyPSMR]) / float64(traced.sum.cmds)
		// psmr clients do not stamp Born, so the ordering phase is read off
		// the sampled chains: issue → merged delivery at replica 0, worker 0.
		m["ringpaxos.order_lat_p50_us"], _ = tr.stageGap("issued", "ordered")
	},
	probes: func(m metrics, plain *simPass, seed int64, seconds float64) {
		m["multiring.probe_ns_per_value"] = probeMerger(seconds)
		m["sim.par2_speedup"], m["sim.par2_overlap"] = probePar2(plain, seed)
	},
}

// probeMerger times multiring.Merger alone: single-value batches pushed
// round-robin from 5 synthetic rings through a 5-ring merge.
func probeMerger(seconds float64) float64 {
	const rings = 5
	values := probeIters(200_000, seconds)
	ids := make([]int, rings)
	for i := range ids {
		ids[i] = i
	}
	mg := multiring.NewMerger(ids, 1)
	delivered := 0
	mg.Deliver = func(int64, core.Value) { delivered++ }
	batches := make([]core.Batch, rings)
	for i := range batches {
		batches[i] = core.Batch{Vals: []core.Value{{ID: core.ValueID(i + 1), Bytes: 128}}}
	}
	t0 := time.Now()
	for i := 0; i < values; i++ {
		mg.Push(i%rings, batches[i%rings])
	}
	ns := float64(time.Since(t0)) / float64(values)
	if delivered != values {
		panic("merger probe lost values")
	}
	return ns
}

// probePar2 repeats the untraced pass's chunks on the same deployment
// partitioned into 2 logical processes and returns sequential host time over
// parallel host time and the mean number of LPs active per window. The
// simulated results must not change.
func probePar2(plain *simPass, seed int64) (speedup, overlap float64) {
	chunkDur := plain.sum.clock / tracedChunks
	d := buildPSMRPar(seed, nil, 2)
	d.runChunk(chunkDur)
	par := measureSim(d, chunkDur, tracedChunks)
	if par.sum.cmds != plain.sum.cmds || par.failed != 0 {
		panic("sim-psmr at Par 2 diverged from the sequential run")
	}
	return float64(plain.sum.hostNs) / float64(par.sum.hostNs), d.lan.Overlap()
}
