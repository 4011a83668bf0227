package smr

import (
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// Node id layout used by deployments: clients get 1..N (their NodeID equals
// their client id, which routes replies), acceptors 1000+, replicas 2000+,
// the stand-alone server 3000.
const (
	acceptorBase = 1000
	replicaBase  = 2000
	csServerNode = 3000
)

// DeployConfig describes a replicated B+-tree deployment (§4.4.2).
type DeployConfig struct {
	// Clients is the number of closed-loop clients.
	Clients int
	// Workload builds each client's workload (index 0..Clients-1).
	Workload func(i int) Workload
	// Replicas is the number of replicas (full replication) or replicas
	// per partition (partitioned).
	Replicas int
	// Partitions > 1 enables state partitioning.
	Partitions int
	// RingSize is the number of ring acceptors (f+1; default 2).
	RingSize int
	// Speculative enables speculative execution at replicas.
	Speculative bool
	// KeysPerPartition is the populated tree size per partition (the paper
	// uses 12M; benchmarks scale this down — only scan width matters for
	// cost).
	KeysPerPartition int64
	// CS deploys the non-replicated client-server baseline instead.
	CS bool
	// Think is the optional client think time.
	Think time.Duration
	// GCInterval overrides the ordering ring's learner-version garbage
	// collection interval (§3.3.7); zero keeps the M-Ring default, so the
	// pinned figure reproductions are untouched. Negative disables GC.
	GCInterval time.Duration
}

// Deployment is a wired cluster ready to run.
type Deployment struct {
	LAN      *lan.LAN
	Clients  []*Client
	Replicas []*Replica
	Server   *CSServer
	Cfg      DeployConfig
}

// Deploy builds the cluster. The same builder drives Chapter 4's tests and
// benchmarks.
func Deploy(cfg DeployConfig, lc lan.Config, seed int64) *Deployment {
	if cfg.RingSize == 0 {
		cfg.RingSize = 2
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > 64 {
		// The whole partitioned design is 64-bound: core.Value.PartMask,
		// MConfig.LearnerParts and the client's sub-reply tracking are all
		// uint64 bitmasks (the paper evaluates at most 4 partitions).
		panic("smr: Partitions > 64 is not supported (partition sets are uint64 bitmasks)")
	}
	if cfg.KeysPerPartition == 0 {
		cfg.KeysPerPartition = 1 << 20
	}
	d := &Deployment{LAN: lan.New(lc, seed), Cfg: cfg}

	if cfg.CS {
		d.deployCS()
	} else {
		d.deploySMR()
	}
	d.LAN.Start()
	return d
}

func (d *Deployment) deployCS() {
	cfg := d.Cfg
	d.Server = &CSServer{Service: NewBTreeService(0, cfg.KeysPerPartition)}
	d.LAN.AddNode(csServerNode, d.Server)
	for i := 0; i < cfg.Clients; i++ {
		id := proto.NodeID(i + 1)
		cl := &Client{
			ID:       int64(id),
			Workload: cfg.Workload(i),
			Think:    cfg.Think,
		}
		node := d.LAN.AddNode(id, cl)
		cl.Submit = func(v core.Value) { node.Send(csServerNode, NewRequest(v)) }
		d.Clients = append(d.Clients, cl)
	}
}

func (d *Deployment) deploySMR() {
	cfg := d.Cfg
	// One M-Ring Paxos instance orders everything; partitioned mode uses
	// one multicast group per partition plus the decision group (§4.2.2).
	// Replicas copy commands out of delivered values synchronously (the
	// speculative path retains the Payload command slice, never the batch
	// array), so batch storage can recycle.
	mcfg := ringpaxos.MConfig{Group: 500, RecycleBatches: true, GCInterval: cfg.GCInterval}
	for i := 0; i < cfg.RingSize; i++ {
		mcfg.Ring = append(mcfg.Ring, proto.NodeID(acceptorBase+i))
	}
	nRep := cfg.Replicas * cfg.Partitions
	learnerParts := make(map[proto.NodeID]uint64)
	for i := 0; i < nRep; i++ {
		id := proto.NodeID(replicaBase + i)
		mcfg.Learners = append(mcfg.Learners, id)
		learnerParts[id] = 1 << uint(i/cfg.Replicas)
	}
	if cfg.Partitions > 1 {
		for p := 0; p < cfg.Partitions; p++ {
			mcfg.PartGroups = append(mcfg.PartGroups, proto.GroupID(600+p))
		}
		mcfg.LearnerParts = learnerParts
	}
	if cfg.Speculative {
		mcfg.Speculative = true
	}

	// Ring acceptors.
	for i := 0; i < cfg.RingSize; i++ {
		id := proto.NodeID(acceptorBase + i)
		a := &ringpaxos.MAgent{Cfg: mcfg}
		d.LAN.AddNode(id, a)
		d.LAN.Subscribe(mcfg.Group, id)
		for _, g := range mcfg.PartGroups {
			d.LAN.Subscribe(g, id) // acceptors listen on all addresses
		}
	}
	// Replicas: partition p owns keys [p*span, (p+1)*span).
	span := cfg.KeysPerPartition
	for i := 0; i < nRep; i++ {
		id := proto.NodeID(replicaBase + i)
		p := i / cfg.Replicas
		rep := &Replica{
			Agent:       &ringpaxos.MAgent{Cfg: mcfg},
			Service:     NewBTreeService(int64(p)*span, span),
			Speculative: cfg.Speculative,
			Index:       i % cfg.Replicas,
			GroupSize:   cfg.Replicas,
		}
		d.LAN.AddNode(id, rep)
		d.LAN.Subscribe(mcfg.Group, id)
		if cfg.Partitions > 1 {
			d.LAN.Subscribe(mcfg.PartGroups[p], id)
		}
		d.Replicas = append(d.Replicas, rep)
	}
	// Clients, each with a co-located proposer agent.
	for i := 0; i < cfg.Clients; i++ {
		id := proto.NodeID(i + 1)
		prop := &ringpaxos.MAgent{Cfg: mcfg}
		cl := &Client{
			ID:            int64(id),
			Workload:      cfg.Workload(i),
			Partitions:    cfg.Partitions,
			PartitionSpan: span,
			Think:         cfg.Think,
			Submit:        prop.Propose,
		}
		d.LAN.AddNode(id, proto.Multi(prop, cl))
		d.Clients = append(d.Clients, cl)
	}
}

// Run advances the deployment by d's duration.
func (dep *Deployment) Run(d time.Duration) { dep.LAN.Run(d) }

// Measure runs for warmup+dur and returns throughput in requests/second and
// the mean latency over the measured window.
func (dep *Deployment) Measure(warmup, dur time.Duration) (float64, time.Duration) {
	return core.MeasureClients(dep.Run, dep.Clients, (*Client).done, warmup, dur)
}

func (c *Client) done() (int64, time.Duration) { return c.Completed, c.LatencySum }
