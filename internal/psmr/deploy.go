package psmr

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/multiring"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

const (
	requestBytes = 128
	acceptorBase = 1000
	replicaBase  = 2000
)

// Workload generates client commands for the §6.5 experiments.
type Workload struct {
	// Workers is the number of classes.
	Workers int
	// DependentPct is the percentage of commands that touch every class
	// (executed in sequential mode by P-SMR).
	DependentPct int
	// KeysPerClass is each class's key range width.
	KeysPerClass int64
	// Zipf skews class popularity when > 1 (Figure 6.7); 0 = uniform.
	Zipf float64
	zipf *rand.Zipf
}

// Next returns one command.
func (w *Workload) Next(r *rand.Rand) Command {
	if w.KeysPerClass == 0 {
		w.KeysPerClass = 1 << 16
	}
	if r.Intn(100) < w.DependentPct {
		classes := make([]int, w.Workers)
		keys := make([]int64, w.Workers)
		for i := 0; i < w.Workers; i++ {
			classes[i] = i
			keys[i] = int64(i)*w.KeysPerClass + r.Int63n(w.KeysPerClass)
		}
		return Command{Classes: classes, Keys: keys, Put: true, Value: r.Int63()}
	}
	var cl int
	if w.Zipf > 1 {
		if w.zipf == nil {
			w.zipf = rand.NewZipf(r, w.Zipf, 1, uint64(w.Workers-1))
		}
		cl = int(w.zipf.Uint64())
	} else {
		cl = r.Intn(w.Workers)
	}
	k := int64(cl)*w.KeysPerClass + r.Int63n(w.KeysPerClass)
	return Command{Classes: []int{cl}, Keys: []int64{k}, Put: r.Intn(2) == 0, Value: r.Int63()}
}

// Client is a closed-loop P-SMR client: it maps each command to the proper
// ring (its class's ring, or the synchronization ring when dependent) and
// waits for the reply before issuing the next request.
type Client struct {
	ID       int64
	Workload *Workload
	// Submit routes a command's value to a ring; deployments wire it.
	Submit func(ring int, v core.Value)
	// Rings is the number of worker rings (the sync ring is ring Rings).
	Rings int

	env     proto.Env
	seq     int64
	started time.Duration

	// Completed counts finished requests; LatencySum their response times.
	Completed  int64
	LatencySum time.Duration
}

var _ proto.Handler = (*Client)(nil)

// Start implements proto.Handler.
func (c *Client) Start(env proto.Env) {
	c.env = env
	env.After(time.Duration(env.Rand().Intn(1000))*time.Microsecond, c.issue)
}

func (c *Client) issue() {
	cmd := c.Workload.Next(c.env.Rand())
	c.seq++
	cmd.Client = c.ID
	cmd.Seq = c.seq
	c.started = c.env.Now()
	ring := 0
	if c.Rings > 0 {
		if len(cmd.Classes) > 1 {
			ring = c.Rings // synchronization ring
		} else {
			ring = cmd.Classes[0]
		}
	}
	c.Submit(ring, core.Value{
		ID:      core.ValueID(c.ID<<32 | c.seq&0xffffffff),
		Bytes:   requestBytes,
		Payload: cmd,
	})
}

// Receive implements proto.Handler. The client is the reply's single
// consumer, so the envelope goes back to the pool either way.
func (c *Client) Receive(_ proto.NodeID, m proto.Message) {
	rep, ok := m.(*msgReply)
	if !ok {
		return
	}
	match := rep.Client == c.ID && rep.Seq == c.seq
	replyPool.Put(rep)
	if !match {
		return
	}
	c.Completed++
	c.LatencySum += c.env.Now() - c.started
	c.issue()
}

// DeployConfig describes a §6.5 experiment.
type DeployConfig struct {
	Mode     Mode
	Workers  int
	Replicas int
	Clients  int
	// OpCost is the per-command execution cost.
	OpCost time.Duration
	// DependentPct and Zipf parameterize the workload.
	DependentPct int
	Zipf         float64
	// GCInterval overrides the ordering rings' learner-version garbage
	// collection interval (§3.3.7); zero keeps the M-Ring default, so the
	// pinned figure reproductions are untouched. Negative disables GC.
	GCInterval time.Duration
	// Trace, when non-nil, supplies a delivery-equivalence trace for
	// replica i's learner agent on ring r (r is always 0 in the
	// single-ring modes). The bench harness wires it to pin per-learner
	// delivered command sequences.
	Trace func(replica, ring int) *core.DelivTrace
	// Par requests parallel-within-experiment execution with this many
	// logical processes (conservative-lookahead PDES; see lan.Partition).
	// Ordering rings spread over LPs 1..Par-1; replicas and clients share
	// LP 0. Results are byte-identical to sequential; <= 1 disables.
	Par int
}

// Deployment is a wired P-SMR (or baseline) cluster.
type Deployment struct {
	LAN      *lan.LAN
	Clients  []*Client
	Replicas []*Replica
	Cfg      DeployConfig
}

// Deploy builds the cluster for one execution model.
func Deploy(cfg DeployConfig, lc lan.Config, seed int64) *Deployment {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.OpCost == 0 {
		cfg.OpCost = 20 * time.Microsecond
	}
	d := &Deployment{LAN: lan.New(lc, seed), Cfg: cfg}
	if cfg.Mode == PSMR {
		d.deployMultiRing()
	} else {
		d.deploySingleRing()
	}
	if cfg.Par > 1 {
		d.LAN.Partition(cfg.Par, d.lpOf)
	}
	d.LAN.Start()
	return d
}

// lpOf assigns nodes to logical processes for partitioned runs: each
// ordering ring's acceptors form (round-robin) an LP of their own — rings
// are the near-independent components the paper's design isolates — while
// replicas, clients and the mergers they host stay together on LP 0.
func (d *Deployment) lpOf(id proto.NodeID) int {
	if id < acceptorBase || id >= replicaBase {
		return 0
	}
	if d.Cfg.Mode != PSMR {
		return 1 // one ring: all acceptors in LP 1
	}
	r := int(id-acceptorBase) / 10
	return 1 + r%(d.Cfg.Par-1)
}

// newReplica builds the execution engine for one replica index.
func (d *Deployment) newReplica(i int) *Replica {
	cfg := d.Cfg
	return &Replica{
		Mode:      cfg.Mode,
		Workers:   cfg.Workers,
		Store:     NewKVStore(cfg.OpCost),
		Index:     i,
		GroupSize: cfg.Replicas,
	}
}

// deploySingleRing wires Sequential, Pipelined and SDPE: one M-Ring Paxos
// instance carries every command in a single total order.
func (d *Deployment) deploySingleRing() {
	cfg := d.Cfg
	// Single-ring replicas consume each value synchronously in OnValue, so
	// batch arrays can recycle; the multi-ring deployment must not (its
	// mergers buffer batches unboundedly when a ring outruns λ).
	mcfg := ringpaxos.MConfig{
		Ring:           []proto.NodeID{acceptorBase, acceptorBase + 1},
		Group:          500,
		RecycleBatches: true,
		GCInterval:     cfg.GCInterval,
	}
	for i := 0; i < cfg.Replicas; i++ {
		mcfg.Learners = append(mcfg.Learners, proto.NodeID(replicaBase+i))
	}
	for _, id := range mcfg.Ring {
		d.LAN.AddNode(id, &ringpaxos.MAgent{Cfg: mcfg})
		d.LAN.Subscribe(mcfg.Group, id)
	}
	for i := 0; i < cfg.Replicas; i++ {
		id := proto.NodeID(replicaBase + i)
		rep := d.newReplica(i)
		agent := &ringpaxos.MAgent{Cfg: mcfg}
		agent.Deliver = func(_ int64, v core.Value) { rep.OnValue(0, v) }
		if cfg.Trace != nil {
			agent.Trace = cfg.Trace(i, 0)
		}
		d.LAN.AddNodeWithConfig(id, proto.Multi(agent, rep),
			lan.NodeConfig{Cores: cfg.Workers + 1})
		d.LAN.Subscribe(mcfg.Group, id)
		d.Replicas = append(d.Replicas, rep)
	}
	for i := 0; i < cfg.Clients; i++ {
		id := proto.NodeID(i + 1)
		prop := &ringpaxos.MAgent{Cfg: mcfg}
		cl := &Client{
			ID:       int64(id),
			Workload: &Workload{Workers: cfg.Workers, DependentPct: cfg.DependentPct, Zipf: cfg.Zipf},
			Submit:   func(_ int, v core.Value) { prop.Propose(v) },
		}
		d.LAN.AddNode(id, proto.Multi(prop, cl))
		d.Clients = append(d.Clients, cl)
	}
}

// deployMultiRing wires P-SMR: one ring per worker plus the synchronization
// ring; every replica worker merges its own ring with the sync ring.
func (d *Deployment) deployMultiRing() {
	cfg := d.Cfg
	nRings := cfg.Workers + 1 // ring cfg.Workers is the sync ring
	ringCfgs := make([]ringpaxos.MConfig, nRings)
	for r := 0; r < nRings; r++ {
		ringCfgs[r] = ringpaxos.MConfig{
			Ring: []proto.NodeID{
				proto.NodeID(acceptorBase + r*10),
				proto.NodeID(acceptorBase + r*10 + 1),
			},
			Group:      proto.GroupID(500 + r),
			GCInterval: cfg.GCInterval,
		}
		for i := 0; i < cfg.Replicas; i++ {
			ringCfgs[r].Learners = append(ringCfgs[r].Learners, proto.NodeID(replicaBase+i))
		}
	}
	// Acceptor nodes, one multiring.Node each, with a pacer on coordinators.
	for r := 0; r < nRings; r++ {
		for j := 0; j < 2; j++ {
			id := proto.NodeID(acceptorBase + r*10 + j)
			n := multiring.NewNode()
			a := &ringpaxos.MAgent{Cfg: ringCfgs[r]}
			n.AddRing(r, a)
			if j == 1 { // coordinator (last ring position)
				n.AddPacer(&multiring.Pacer{Agent: a, Lambda: 20000, Delta: 500 * time.Microsecond})
			}
			d.LAN.AddNode(id, n)
			d.LAN.Subscribe(ringCfgs[r].Group, id)
		}
	}
	// Replicas: learner agents for every ring; per-worker mergers.
	for i := 0; i < cfg.Replicas; i++ {
		id := proto.NodeID(replicaBase + i)
		rep := d.newReplica(i)
		node := multiring.NewNode()
		agents := make([]*ringpaxos.MAgent, nRings)
		for r := 0; r < nRings; r++ {
			agents[r] = &ringpaxos.MAgent{Cfg: ringCfgs[r]}
			if cfg.Trace != nil {
				agents[r].Trace = cfg.Trace(i, r)
			}
			node.AddRing(r, agents[r])
			d.LAN.Subscribe(ringCfgs[r].Group, id)
		}
		// Wire merges: worker w merges {ring w, sync ring}; the sync ring's
		// decisions fan out to every worker's merger.
		starter := &proto.HandlerFunc{OnStart: func(env proto.Env) {
			rep.Start(env)
			mergers := make([]*multiring.Merger, cfg.Workers)
			for w := 0; w < cfg.Workers; w++ {
				mergers[w] = rep.mergerFor(w)
				mergers[w].Start(env)
			}
			for w := 0; w < cfg.Workers; w++ {
				w := w
				agents[w].DeliverBatch = func(_ int64, b core.Batch) {
					mergers[w].Push(w, b)
				}
			}
			agents[cfg.Workers].DeliverBatch = func(_ int64, b core.Batch) {
				for w := 0; w < cfg.Workers; w++ {
					mergers[w].Push(cfg.Workers, b)
				}
			}
		}}
		d.LAN.AddNodeWithConfig(id, proto.Multi(starter, node),
			lan.NodeConfig{Cores: cfg.Workers + 1})
		d.Replicas = append(d.Replicas, rep)
	}
	// Clients with one proposer agent per ring.
	for i := 0; i < cfg.Clients; i++ {
		id := proto.NodeID(i + 1)
		node := multiring.NewNode()
		props := make([]*ringpaxos.MAgent, nRings)
		for r := 0; r < nRings; r++ {
			props[r] = &ringpaxos.MAgent{Cfg: ringCfgs[r]}
			node.AddRing(r, props[r])
		}
		cl := &Client{
			ID:       int64(id),
			Workload: &Workload{Workers: cfg.Workers, DependentPct: cfg.DependentPct, Zipf: cfg.Zipf},
			Rings:    cfg.Workers,
			Submit:   func(r int, v core.Value) { props[r].Propose(v) },
		}
		d.LAN.AddNode(id, proto.Multi(node, cl))
		d.Clients = append(d.Clients, cl)
	}
}

// Run advances the deployment.
func (d *Deployment) Run(dur time.Duration) { d.LAN.Run(dur) }

// Measure runs warmup+dur and returns request throughput and mean latency.
func (d *Deployment) Measure(warmup, dur time.Duration) (float64, time.Duration) {
	return core.MeasureClients(d.Run, d.Clients, (*Client).done, warmup, dur)
}

func (c *Client) done() (int64, time.Duration) { return c.Completed, c.LatencySum }
