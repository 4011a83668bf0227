package bench

// Deployments as data. Every experiment that orders values through one of
// the four Paxos variants builds its cluster here: the caller fills in the
// protocol's own Config and a rigSpec naming what else varies between
// deployments — the network, per-node resources, the traffic source,
// write-ahead logs, the fault schedule and the trace hook — and gets back
// a started rig. Node-add order, multicast subscriptions and the PDES
// partition rule are fixed per protocol, so two experiments that describe
// the same deployment run the same schedule.

import (
	"slices"
	"time"

	"repro/internal/abcast"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
	"repro/internal/wal"
)

// everyNode as load.at puts a traffic source on every ring process.
const everyNode = -1

// load is a deployment's traffic source.
type load struct {
	size int     // bytes per value
	rate float64 // offered bits per second, summed over all sources
	// n is the number of dedicated proposer nodes (ids 200+) an M-Ring
	// deployment spreads rate over; 0 means one.
	n int
	// at is the U-Ring position whose process carries the source (every
	// ring process can propose), or everyNode. S-Paxos always spreads the
	// load over every replica.
	at int
	// subscribed joins the M-Ring proposers to the ring's multicast group:
	// they hear ring changes and re-aim at an elected coordinator.
	subscribed bool
	// session, when set, replaces the open-loop pump with this closed-loop
	// exactly-once client; the builder wires its Submit and Coord to the
	// agent sharing its node.
	session *client.Session
}

// rigSpec is what varies between two deployments of one protocol beyond
// the protocol's Config.
type rigSpec struct {
	dep *DelivDeployment // delivery-trace scope (nil records nothing)
	// orc, when set, gets a cursor chained behind every learner's delivery
	// trace: the trace's 45 ms window bounds only the delivery digest, the
	// oracle sees every delivery of the whole run.
	orc *core.Oracle
	net lan.Config
	// node gives the resources of the i-th protocol node in add order;
	// nil means stock machines. Dedicated proposer nodes are always stock.
	node   func(i int) lan.NodeConfig
	load   load
	wal    bool // acceptors append to a rig-owned write-ahead log (the modeled disk survives a process crash)
	faults *fault.Schedule
}

// rig is one started deployment plus what the reports read from it.
type rig struct {
	l     *lan.LAN
	ids   []proto.NodeID // every node, proposers included
	mring map[proto.NodeID]*ringpaxos.MAgent
	uring []*ringpaxos.UAgent // by ring position
	// learners lists the learner node ids of an M-Ring deployment.
	learners []proto.NodeID
	logged   []interface{ LiveLogLen() int } // every acceptor/learner agent
	logs     []*wal.Log
	session  *client.Session
	// probe is the delivery tail of the deployment's reference learner: the
	// first dedicated learner (M-Ring, Paxos) or the last ring position /
	// replica; insts reads its delivery frontier where instances are numbered.
	probe *core.Tail
	insts func() int64
}

var stockNode = lan.NodeConfig{CPUScale: 1, BandwidthScale: 1}

// nodeIDs returns n consecutive node ids starting at first.
func nodeIDs(first, n int) []proto.NodeID {
	ids := make([]proto.NodeID, n)
	for i := range ids {
		ids[i] = proto.NodeID(first + i)
	}
	return ids
}

func (s *rigSpec) newRig() *rig { return &rig{l: lan.New(s.net, 1)} }

// add installs a protocol node (not a dedicated proposer).
func (s *rigSpec) add(r *rig, id proto.NodeID, h proto.Handler) {
	nc := stockNode
	if s.node != nil {
		nc = s.node(len(r.ids))
	}
	r.l.AddNodeWithConfig(id, h, nc)
	r.ids = append(r.ids, id)
}

// trace registers learner id's delivery trace, with the oracle chained
// behind it when the deployment has one.
func (s *rigSpec) trace(id proto.NodeID) *core.DelivTrace {
	tr := s.dep.Learner(id)
	if s.orc == nil {
		return tr
	}
	if tr == nil {
		// No recorder (plain Run path): a detached trace keeps the oracle
		// wiring — and therefore the printed verdicts — identical.
		tr = core.NewDelivTrace(DelivWindow)
	}
	tr.Chain(s.orc.Learner())
	return tr
}

// source returns the traffic source for one node — the session, or a pump
// offering 1/share of the load — submitting through the agent it shares
// the node with.
func (s *rigSpec) source(r *rig, submit func(core.Value), coord func() proto.NodeID, share int) proto.Handler {
	if ses := s.load.session; ses != nil {
		ses.Cfg.Submit, ses.Cfg.Coord = submit, coord
		r.session = ses
		return ses
	}
	return &pump{size: s.load.size, rate: s.load.rate / float64(share), submit: submit}
}

func (s *rigSpec) start(r *rig) *rig {
	r.l.InstallFaults(s.faults)
	r.l.Start()
	return r
}

// walFor returns a fresh rig-owned log when the spec asks for WALs and the
// node is an acceptor.
func (s *rigSpec) walFor(r *rig, acceptor bool) *wal.Log {
	if !s.wal || !acceptor {
		return nil
	}
	log := &wal.Log{}
	r.logs = append(r.logs, log)
	return log
}

// buildMRing deploys M-Ring Paxos: ring, spares and learners subscribed to
// the group, plus load.n proposer nodes (ids 200+) each pairing a proposer
// agent with its traffic source.
func buildMRing(cfg ringpaxos.MConfig, s rigSpec) *rig {
	r := s.newRig()
	r.mring = map[proto.NodeID]*ringpaxos.MAgent{}
	r.learners = cfg.Learners
	members := slices.Concat(cfg.Ring, cfg.Spares)
	for _, id := range slices.Concat(members, cfg.Learners) {
		a := &ringpaxos.MAgent{Cfg: cfg}
		a.Log = s.walFor(r, slices.Contains(cfg.Ring, id))
		r.mring[id] = a
		r.logged = append(r.logged, a)
		s.add(r, id, a)
		r.l.Subscribe(cfg.Group, id)
	}
	for _, id := range cfg.Learners {
		r.mring[id].Trace = s.trace(id)
	}
	nProp := max(s.load.n, 1)
	for i := 0; i < nProp; i++ {
		id := proto.NodeID(200 + i)
		prop := &ringpaxos.MAgent{Cfg: cfg}
		r.l.AddNode(id, proto.Multi(prop, s.source(r, prop.Propose, prop.Coordinator, nProp)))
		r.ids = append(r.ids, id)
		if s.load.subscribed {
			r.l.Subscribe(cfg.Group, id)
		}
	}
	if p := Par(); p > 1 {
		// The ring — spares included, since an election pulls them in
		// mid-run — forms LP 1; learners and proposers keep LP 0. Fault
		// events fire on each target node's own LP, so the run stays
		// byte-identical.
		r.l.Partition(p, func(id proto.NodeID) int {
			if slices.Contains(members, id) {
				return 1
			}
			return 0
		})
	}
	p := r.mring[cfg.Learners[0]]
	r.probe, r.insts = &p.Tail, p.NextDeliver
	return s.start(r)
}

// buildURing deploys U-Ring Paxos: every ring process is proposer,
// acceptor (the first NumAcceptors positions) and learner.
func buildURing(cfg ringpaxos.UConfig, s rigSpec) *rig {
	r := s.newRig()
	nAcc := cfg.NumAcceptors
	if nAcc == 0 {
		nAcc = len(cfg.Ring)
	}
	for i, id := range cfg.Ring {
		a := &ringpaxos.UAgent{Cfg: cfg}
		a.Log = s.walFor(r, i < nAcc)
		a.Trace = s.trace(id)
		r.uring = append(r.uring, a)
		r.logged = append(r.logged, a)
		hs := []proto.Handler{a}
		switch s.load.at {
		case i:
			hs = append(hs, s.source(r, a.Propose, a.Coordinator, 1))
		case everyNode:
			hs = append(hs, s.source(r, a.Propose, a.Coordinator, len(cfg.Ring)))
		}
		s.add(r, id, proto.Multi(hs...))
	}
	p := r.uring[len(r.uring)-1]
	r.probe, r.insts = &p.Tail, p.NextDeliver
	return s.start(r)
}

// buildPaxos deploys basic Paxos — acceptors, then learners, subscribed to
// the group in the multicast wiring — and one proposer node (id 200).
func buildPaxos(cfg paxos.Config, s rigSpec) *rig {
	r := s.newRig()
	for i, id := range slices.Concat(cfg.Acceptors, cfg.Learners) {
		a := &paxos.Agent{Cfg: cfg}
		if i >= len(cfg.Acceptors) {
			a.Trace = s.trace(id)
		}
		if i == len(cfg.Acceptors) {
			r.probe = &a.Tail
		}
		r.logged = append(r.logged, a)
		s.add(r, id, a)
		if cfg.Multicast {
			r.l.Subscribe(cfg.Group, id)
		}
	}
	prop := &paxos.Agent{Cfg: cfg}
	r.l.AddNode(200, proto.Multi(prop, s.source(r, prop.Propose, nil, 1)))
	r.ids = append(r.ids, 200)
	return s.start(r)
}

// buildSPaxos deploys S-Paxos, one copy of tmpl per replica; clients
// spread over the replicas, so every replica carries an equal share of
// the load.
func buildSPaxos(tmpl abcast.SPaxos, s rigSpec) *rig {
	r := s.newRig()
	var p *abcast.SPaxos
	for _, id := range tmpl.Replicas {
		a := tmpl
		p = &a
		p.Trace = s.trace(id)
		r.logged = append(r.logged, p)
		s.add(r, id, proto.Multi(p, s.source(r, p.Submit, nil, len(tmpl.Replicas))))
	}
	r.probe = &p.Tail
	return s.start(r)
}

// deploySpec is one deployment as a value: the protocol's Config — exactly
// one of the four is set — and the rigSpec around it. It is what the
// family table stores and what a family's variants edit.
type deploySpec struct {
	mring  *ringpaxos.MConfig
	uring  *ringpaxos.UConfig
	paxos  *paxos.Config
	spaxos *abcast.SPaxos
	rigSpec
}

func (d deploySpec) build() *rig {
	switch {
	case d.mring != nil:
		return buildMRing(*d.mring, d.rigSpec)
	case d.uring != nil:
		return buildURing(*d.uring, d.rigSpec)
	case d.paxos != nil:
		return buildPaxos(*d.paxos, d.rigSpec)
	default:
		return buildSPaxos(*d.spaxos, d.rigSpec)
	}
}

// lost sums the loss counters (schedule drops, partition cuts,
// dead-process losses, LossRate draws) across every node.
func (r *rig) lost() int64 {
	var n int64
	for _, id := range r.ids {
		n += r.l.Node(id).Stats().MsgsLost
	}
	return n
}

// drops sums the learners' datagram buffer-overflow drops.
func (r *rig) drops() int64 {
	var n int64
	for _, id := range r.learners {
		n += r.l.Node(id).Stats().MsgsDropped
	}
	return n
}

func (r *rig) walBytes() int64 {
	var n int64
	for _, l := range r.logs {
		n += l.Bytes()
	}
	return n
}

func (r *rig) replayed() int64 {
	var n int64
	for _, l := range r.logs {
		n += l.Replayed()
	}
	return n
}

// snaps counts the snapshot catch-ups the M-Ring learners performed.
func (r *rig) snaps() int64 {
	var n int64
	for _, id := range r.learners {
		n += r.mring[id].SnapshotsInstalled
	}
	return n
}

// dupSup counts the twice-decided commands the learners' dedup tables
// suppressed.
func (r *rig) dupSup() int64 {
	var n int64
	for _, id := range r.learners {
		n += r.mring[id].DupSuppressed
	}
	for _, a := range r.uring {
		n += a.DupSuppressed
	}
	return n
}

// live is the total number of per-instance log records retained across
// all agents (acceptor vote logs, coordinator windows and decision logs,
// learner reorder buffers).
func (r *rig) live() int {
	n := 0
	for _, a := range r.logged {
		n += a.LiveLogLen()
	}
	return n
}

// measureAB runs a warmup, then dur (0 = the figures' standard window),
// and reports what the probe learner delivered in between.
func (r *rig) measureAB(dur time.Duration) abResult {
	if dur == 0 {
		dur = measure
	}
	insts := r.insts
	if insts == nil {
		insts = func() int64 { return 0 }
	}
	r.l.Run(warmup)
	d0, i0 := *r.probe, insts()
	r.l.Run(dur)
	d1, i1 := *r.probe, insts()
	res := abResult{
		Mbps:    mbps(d1.DeliveredBytes-d0.DeliveredBytes, dur),
		MsgsSec: float64(d1.DeliveredMsgs-d0.DeliveredMsgs) / dur.Seconds(),
		InstSec: float64(i1-i0) / dur.Seconds(),
	}
	if n := d1.LatencyCount - d0.LatencyCount; n > 0 {
		res.Lat = (d1.LatencySum - d0.LatencySum) / time.Duration(n)
	}
	return res
}
