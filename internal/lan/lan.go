// Package lan is a discrete-event model of the paper's experimental testbed:
// a cluster of commodity servers on a gigabit Ethernet switch.
//
// The model captures the four resources that shape every result in the
// paper's evaluation sections:
//
//   - link bandwidth: each NIC is full-duplex with separate in/out
//     serialization queues; ip-multicast is replicated by the switch, so a
//     multicast sender pays the frame once while a unicast one-to-many
//     sender pays it once per receiver;
//   - socket buffers: datagrams arriving at a full receive buffer are
//     dropped (packet loss); TCP-like channels instead apply backpressure
//     through a bounded in-flight window;
//   - CPU: each node processes sends and receives serially at a configurable
//     per-message + per-byte cost, which is what saturates a Paxos
//     coordinator before the wire does;
//   - disk: synchronous stable-storage writes are bounded by a sequential
//     device bandwidth.
//
// Defaults are calibrated to the paper's hardware (1 Gbps, 0.1 ms RTT,
// ~270 Mbps effective synchronous write bandwidth).
package lan

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Config holds cluster-wide resource parameters. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// Bandwidth is the NIC capacity in bits per second, per direction.
	Bandwidth float64
	// Latency is the one-way wire propagation delay (RTT/2).
	Latency time.Duration
	// UDPBuf is the per-node datagram receive buffer in bytes. Frames
	// arriving while the buffer is full are dropped.
	UDPBuf int
	// TCPBuf is the per-connection window in bytes for reliable channels.
	TCPBuf int
	// CPUPerMsg is the fixed processing cost charged for each message sent
	// or received (system call + protocol handling).
	CPUPerMsg time.Duration
	// CPUPerByte is the variable processing cost per payload byte.
	CPUPerByte time.Duration
	// DiskBandwidth is the sequential synchronous write bandwidth in bits
	// per second.
	DiskBandwidth float64
	// DiskLatency is the fixed per-write latency (command overhead).
	DiskLatency time.Duration
}

// DefaultConfig returns parameters calibrated to the dissertation's testbed:
// Dell SC1435 nodes on a gigabit HP ProCurve switch with 0.1 ms RTT and
// OCZ-VERTEX3 SSDs that sustain roughly 270 Mbps of synchronous writes.
func DefaultConfig() Config {
	return Config{
		Bandwidth:     1e9,
		Latency:       50 * time.Microsecond,
		UDPBuf:        16 << 20,
		TCPBuf:        32 << 20,
		CPUPerMsg:     2 * time.Microsecond,
		CPUPerByte:    1 * time.Nanosecond,
		DiskBandwidth: 270e6,
		DiskLatency:   60 * time.Microsecond,
	}
}

// NodeConfig scales one node's resources relative to the cluster Config,
// which is how the Chapter 7 heterogeneous (cloud) deployments are modeled.
type NodeConfig struct {
	// CPUScale multiplies the node's processing speed (0.5 = half as fast).
	CPUScale float64
	// BandwidthScale multiplies the node's NIC capacity.
	BandwidthScale float64
	// Cores is the number of CPU cores (default 1). Message handling runs
	// on core 0; WorkOn schedules execution work on a chosen core, which
	// is how P-SMR's parallel workers are modeled (Chapter 6).
	Cores int
}

// Stats aggregates a node's traffic counters. Congestion drops and
// injected losses are counted separately: MsgsDropped/BytesDropped are
// datagrams the receive buffer overflowed on (the congestion signal the
// throughput figures report), while MsgsLost/BytesLost are frames the
// fault layer destroyed — fault.Net drops, partition cuts, datagrams into
// down nodes and TCP frames into dead ones. Lost frames are counted at the
// node that detected the loss: the sender for fault.Net and partition
// drops, the receiver for down-node losses.
type Stats struct {
	MsgsSent     int64
	BytesSent    int64
	MsgsRecv     int64
	BytesRecv    int64
	MsgsDropped  int64
	BytesDropped int64
	MsgsLost     int64
	BytesLost    int64
	DiskBytes    int64
	DiskWrites   int64
}

// LAN is a simulated cluster. Create one with New, add nodes, subscribe
// multicast groups, then Start and Run. Optionally call Partition between
// the last Subscribe and Start to execute the cluster as parallel logical
// processes under conservative lookahead (see Partition).
type LAN struct {
	Sim     *sim.Simulator
	cfg     Config
	seed    int64
	nodes   map[proto.NodeID]*Node
	groups  map[proto.GroupID]map[proto.NodeID]bool
	members map[proto.GroupID]*members // replaced, never mutated, on (un)subscribe and AddNode
	par     *par                       // non-nil once Partition engaged

	faults     *fault.Schedule // non-nil once InstallFaults armed the fault layer
	faultNetOn bool            // faults.Net has active datagram rules
}

// New creates an empty cluster with the given parameters and seed.
func New(cfg Config, seed int64) *LAN {
	l := &LAN{
		Sim:     sim.New(seed),
		cfg:     cfg,
		seed:    seed,
		nodes:   make(map[proto.NodeID]*Node),
		groups:  make(map[proto.GroupID]map[proto.NodeID]bool),
		members: make(map[proto.GroupID]*members),
	}
	l.Sim.SetDispatcher(l.dispatch)
	return l
}

// Typed-event kinds for the simulation kernel. Every per-message callback in
// the hot path (transmit -> receive -> ack, datagram arrival and delivery,
// work and disk completions) is one of these, so steady-state traffic
// schedules no closures at all. The two Fan kinds carry one multicast frame
// for every member of a same-instant leg (see fan): P2 is the frame's
// send-time member list and bit i of B stands for its member i. Only a
// sequential run schedules them; a partitioned one keeps one event per
// member (its xrec path).
const (
	evTCPArrive     uint8 = iota + 1 // frame cleared dst's in-link: P1=msg, P2=conn, D=size
	evTCPDeliver                     // rx CPU done, hand to handler + ack: P1=msg, P2=conn, D=size
	evTCPAck                         // ack reached sender, window opens: P2=conn, D=size
	evUDPArrive                      // datagram cleared in-link: P1=msg, P2=dst node, A=src id, D=size
	evUDPArriveFan                   // multicast cleared in-links: P1=msg, P2=*members, B=mask, A=src id, D=size
	evUDPDeliver                     // rx CPU done, drain buffer + hand over: P1=msg, P2=node, A=src id, D=size
	evUDPDeliverFan                  // rx CPUs done, per member as evUDPDeliver: P1=msg, P2=*members, B=mask, A=src id, D=size
	evNodeDeliver                    // loopback delivery: P1=msg, P2=node, A=src id
	evNodeFunc                       // down-gated completion (Work/DiskWrite): P1=func(), P2=node
	evNodeTimer                      // fire-and-forget protocol timer: P1=func()
	evNodeTimerArg                   // fire-and-forget timer with argument: P1=func(int64), A=arg
	evNodeFuncArg                    // down-gated Work completion with argument: P1=func(int64), P2=node, A=arg
	evFaultCrash                     // fault schedule: take the node down: P2=node, A=mode
	evFaultRestart                   // fault schedule: bring the node back: P2=node
	evFaultPart                      // fault schedule: install partition view: P1=sides map, P2=node
	evFaultHeal                      // fault schedule: clear partition view + re-pump: P2=node
)

// dispatch executes one typed event. It runs inside the kernel loop at the
// event's instant, so sim.Now() is the scheduled time.
func (l *LAN) dispatch(ev sim.TypedEvent) {
	switch ev.Kind {
	case evTCPArrive:
		ev.P2.(*conn).arrive(ev.P1.(proto.Message), int(ev.D))
	case evTCPDeliver:
		ev.P2.(*conn).deliver(ev.P1.(proto.Message), int(ev.D))
	case evTCPAck:
		ev.P2.(*conn).ack(int(ev.D))
	case evUDPArrive:
		n := ev.P2.(*Node)
		if done, ok := n.datagramArrive(int(ev.D)); ok {
			ev.Kind = evUDPDeliver
			n.k.AtEvent(done, ev)
		}
	case evUDPArriveFan:
		ms := ev.P2.(*members)
		f := fan{k: &l.Sim.LP, ms: ms, one: evUDPDeliver, many: evUDPDeliverFan, ev: ev}
		for b := uint64(ev.B); b != 0; b &= b - 1 {
			i := bits.TrailingZeros64(b)
			if done, ok := ms.nodes[i].datagramArrive(int(ev.D)); ok {
				f.add(i, done)
			}
		}
		f.flush()
	case evUDPDeliver:
		ev.P2.(*Node).datagramDeliver(proto.NodeID(ev.A), ev.P1.(proto.Message), int(ev.D))
	case evUDPDeliverFan:
		ms := ev.P2.(*members)
		for b := uint64(ev.B); b != 0; b &= b - 1 {
			ms.nodes[bits.TrailingZeros64(b)].datagramDeliver(proto.NodeID(ev.A), ev.P1.(proto.Message), int(ev.D))
		}
	case evNodeDeliver:
		n := ev.P2.(*Node)
		if n.down {
			return
		}
		n.handler.Receive(proto.NodeID(ev.A), ev.P1.(proto.Message))
	case evNodeFunc:
		if ev.P2.(*Node).down {
			return
		}
		ev.P1.(func())()
	case evNodeTimer:
		// Like After, timers keep firing while the node is down (I/O is
		// suppressed at the Send/Receive gates instead).
		ev.P1.(func())()
	case evNodeTimerArg:
		ev.P1.(func(int64))(ev.A)
	case evNodeFuncArg:
		if ev.P2.(*Node).down {
			return
		}
		ev.P1.(func(int64))(ev.A)
	case evFaultCrash:
		ev.P2.(*Node).crash(fault.Mode(ev.A))
	case evFaultRestart:
		ev.P2.(*Node).SetDown(false)
	case evFaultPart:
		n := ev.P2.(*Node)
		n.partSides = ev.P1.(map[proto.NodeID]int)
		n.partSide = n.partSides[n.id]
	case evFaultHeal:
		n := ev.P2.(*Node)
		n.partSides = nil
		n.partSide = 0
		n.repumpAll()
	}
}

// Config returns the cluster-wide parameters.
func (l *LAN) Config() Config { return l.cfg }

// Cross-partition record kinds.
const (
	xTCP uint8 = iota + 1 // reliable-channel frame awaiting in-link admission
	xUDP                  // datagram frame awaiting in-link admission
	xAck                  // TCP ack returning to the sender's partition
)

// xrec is one deferred inter-node interaction. In partitioned mode a send
// charges only sender-owned resources inline; the receiver-side half —
// in-link admission and scheduling into the destination's heap — is
// deferred as an xrec and applied at the next window barrier, at the exact
// position the window replay assigns its scheduling call (see
// sim.ReplayWindow), which reproduces the sequential run's global send
// order and in-link arithmetic.
type xrec struct {
	at time.Duration // arrival at dst's in-link (xTCP/xUDP) or ack firing time (xAck)
	// rank is the call's exact sequential position when the send happened
	// outside a window (handler Start, code between runs); 0 for in-window
	// sends, whose position the barrier replay determines.
	rank uint64
	size int
	kind uint8
	src  proto.NodeID // xUDP: sending node (delivered to the handler)
	dst  *Node        // xUDP: receiving node
	c    *conn        // xTCP/xAck: the channel
	msg  proto.Message
}

// par is the partitioned-execution state of a LAN.
type par struct {
	p   *sim.Par
	lps []*sim.LP
	seq uint64   // shared rank counter: the sequential run's seq, replayed
	out [][]xrec // per-source-LP outboxes, in LP call order
	off []int    // per-LP index of the first in-window record, per barrier
}

// Partition splits the cluster into nLP logical processes executed in
// parallel under conservative lookahead: every window, each LP executes all
// events below min(next event across LPs) + Latency on its own goroutine,
// and inter-node traffic is exchanged at window barriers. lpOf maps a node
// id to its LP in [0, nLP); out-of-range (or nil lpOf) means LP 0.
//
// Call after every AddNode/Subscribe and before Start. Determinism matches
// the sequential run — outputs are byte-identical — because the one-way
// wire latency lower-bounds every inter-node effect, so barrier-injected
// events always land beyond the window that sent them, ordered by their
// send instant.
//
// Partition reports whether partitioning engaged. It declines (and the
// cluster runs sequentially, with identical results) when nLP < 2 or
// when the configuration has no lookahead (Latency <= 0). Faulted
// configurations partition fine: the fault layer's drop/dup/delay rules
// draw from per-node RNG streams whose consumption order is identical in
// sequential and parallel runs.
func (l *LAN) Partition(nLP int, lpOf func(proto.NodeID) int) bool {
	if l.par != nil {
		panic("lan: Partition called twice")
	}
	if nLP < 2 || l.cfg.Latency <= 0 {
		return false
	}
	pr := &par{
		lps: make([]*sim.LP, nLP),
		out: make([][]xrec, nLP),
		off: make([]int, nLP),
	}
	for i := range pr.lps {
		pr.lps[i] = sim.NewLP()
		pr.lps[i].SetDispatcher(l.dispatch)
		pr.lps[i].SetSeqSource(&pr.seq)
	}
	for id, n := range l.nodes {
		lp := 0
		if lpOf != nil {
			lp = lpOf(id)
		}
		if lp < 0 || lp >= nLP {
			lp = 0
		}
		n.lp = lp
		n.k = pr.lps[lp]
	}
	l.par = pr
	pr.p = &sim.Par{LPs: pr.lps, Horizon: l.cfg.Latency, Barrier: l.drainOutboxes}
	for g := range l.groups {
		l.regroup(g)
	}
	return true
}

// Partitions reports the number of logical processes the cluster runs as
// (0 when sequential).
func (l *LAN) Partitions() int {
	if l.par == nil {
		return 0
	}
	return len(l.par.lps)
}

// Overlap reports the mean number of LPs that executed events per
// synchronization window — the concurrency the partitioning exposes, and
// the speedup bound on a multi-core host. 0 when sequential.
func (l *LAN) Overlap() float64 {
	if l.par == nil {
		return 0
	}
	return l.par.p.Overlap()
}

// ParStats reports (windows, activeLPsSummed, eventsExecuted) accumulated
// across partitioned runs; zeros when sequential.
func (l *LAN) ParStats() (windows, activeSum, eventSum uint64) {
	if l.par == nil {
		return 0, 0, 0
	}
	return l.par.p.Windows, l.par.p.ActiveSum, l.par.p.EventSum
}

// drainOutboxes is the Par barrier: single-threaded between windows, it
// applies every partition's deferred inter-node records in their exact
// sequential positions. Records produced outside a window (handler Start,
// code between runs) carry pre-assigned ranks and always form a prefix of
// their outbox — the previous window's records were consumed by the previous
// barrier — so they apply first, in rank order. In-window records then apply
// at the positions the window replay assigns them, interleaved with the
// ranking of every LP-local scheduling call. In-link admissions therefore
// happen in the sequential run's global order, reproducing its
// reservation arithmetic, and each injected event carries its exact rank.
func (l *LAN) drainOutboxes() {
	pr := l.par
	var pre []*xrec
	for i := range pr.out {
		n := 0
		for j := range pr.out[i] {
			if pr.out[i][j].rank == 0 {
				break
			}
			pre = append(pre, &pr.out[i][j])
			n++
		}
		pr.off[i] = n
	}
	if len(pre) > 0 {
		sort.Slice(pre, func(i, j int) bool { return pre[i].rank < pre[j].rank })
		for _, r := range pre {
			l.applyXrec(r, r.rank)
		}
	}
	sim.ReplayWindow(pr.lps, func(lp, x int, rank uint64) {
		l.applyXrec(&pr.out[lp][pr.off[lp]+x], rank)
	})
	for i := range pr.out {
		s := pr.out[i]
		for j := range s {
			s[j] = xrec{} // drop message/conn references before reuse
		}
		pr.out[i] = s[:0]
	}
}

// applyXrec performs the receiver-side half of one deferred interaction, at
// its replay position: in-link admission (arrival records) and injection
// into the destination LP with the call's exact rank.
func (l *LAN) applyXrec(r *xrec, rank uint64) {
	pr := l.par
	switch r.kind {
	case xTCP:
		dst := r.c.to
		rxEnd := admit(dst, r.at, r.size)
		pr.lps[dst.lp].Inject(rxEnd, rank,
			sim.TypedEvent{Kind: evTCPArrive, D: int64(r.size), P1: r.msg, P2: r.c})
	case xUDP:
		rxEnd := admit(r.dst, r.at, r.size)
		pr.lps[r.dst.lp].Inject(rxEnd, rank,
			sim.TypedEvent{Kind: evUDPArrive, A: int64(r.src), D: int64(r.size), P1: r.msg, P2: r.dst})
	case xAck:
		pr.lps[r.c.from.lp].Inject(r.at, rank,
			sim.TypedEvent{Kind: evTCPAck, D: int64(r.size), P2: r.c})
	}
}

// InstallFaults arms a fault schedule: its events fire during Run (event
// times are absolute simulated instants) and its Net rules apply to every
// datagram. Call between the last AddNode/Subscribe/Partition and Start.
// The crash semantics do not depend on it: a scheduled crash and SetDown
// behave the same with or without a schedule installed. A nil schedule
// is a no-op.
func (l *LAN) InstallFaults(s *fault.Schedule) {
	if s == nil {
		return
	}
	if l.faults != nil {
		panic("lan: InstallFaults called twice")
	}
	l.faults = s
	l.faultNetOn = s.Net.Enabled()
}

// scheduleFaults schedules every fault event on its target node's own
// engine, so in partitioned mode each event fires on the LP that owns
// the state it mutates. Partition and heal events fan out to every node
// (ascending id), each updating its own connectivity view at the same
// instant. Call events ride the ordinary down-gated completion event,
// so a call aimed at a crashed node is silently skipped.
func (l *LAN) scheduleFaults() {
	ids := make([]proto.NodeID, 0, len(l.nodes))
	for id := range l.nodes {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	for _, ev := range l.faults.Events() {
		switch ev.Kind {
		case fault.CrashEvent:
			if n := l.nodes[ev.Node]; n != nil {
				n.k.AtEvent(ev.At, sim.TypedEvent{Kind: evFaultCrash, A: int64(ev.Mode), P2: n})
			}
		case fault.RestartEvent:
			if n := l.nodes[ev.Node]; n != nil {
				n.k.AtEvent(ev.At, sim.TypedEvent{Kind: evFaultRestart, P2: n})
			}
		case fault.PartitionEvent:
			for _, id := range ids {
				n := l.nodes[id]
				n.k.AtEvent(ev.At, sim.TypedEvent{Kind: evFaultPart, P1: ev.Sides, P2: n})
			}
		case fault.HealEvent:
			for _, id := range ids {
				n := l.nodes[id]
				n.k.AtEvent(ev.At, sim.TypedEvent{Kind: evFaultHeal, P2: n})
			}
		case fault.CallEvent:
			if n := l.nodes[ev.Node]; n != nil && ev.Fn != nil {
				n.k.AtEvent(ev.At, sim.TypedEvent{Kind: evNodeFunc, P1: ev.Fn, P2: n})
			}
		}
	}
}

// AddNode installs handler h on a new node. It panics if id already exists
// (a configuration bug, not a runtime condition).
func (l *LAN) AddNode(id proto.NodeID, h proto.Handler) *Node {
	return l.AddNodeWithConfig(id, h, NodeConfig{CPUScale: 1, BandwidthScale: 1})
}

// AddNodeWithConfig installs handler h on a new node with scaled resources.
func (l *LAN) AddNodeWithConfig(id proto.NodeID, h proto.Handler, nc NodeConfig) *Node {
	if _, ok := l.nodes[id]; ok {
		panic(fmt.Sprintf("lan: duplicate node %d", id))
	}
	if nc.CPUScale <= 0 {
		nc.CPUScale = 1
	}
	if nc.BandwidthScale <= 0 {
		nc.BandwidthScale = 1
	}
	if nc.Cores <= 0 {
		nc.Cores = 1
	}
	n := &Node{
		id:       id,
		lan:      l,
		handler:  h,
		nc:       nc,
		k:        &l.Sim.LP,
		coreFree: make([]time.Duration, nc.Cores),
		conns:    make(map[proto.NodeID]*conn),
		// Per-node RNG stream for injected datagram faults: draws happen
		// on the sending node's own LP, so faulted runs replay
		// byte-identically under Partition.
		rng: rand.New(rand.NewSource(l.seed ^ int64(uint64(id+1)*0x9E3779B97F4A7C15))),
	}
	l.nodes[id] = n
	for g, set := range l.groups {
		if set[id] {
			l.regroup(g) // the member list names nodes, not ids
		}
	}
	return n
}

// Node returns the node with the given id, or nil.
func (l *LAN) Node(id proto.NodeID) *Node { return l.nodes[id] }

// Nodes returns the number of nodes.
func (l *LAN) Nodes() int { return len(l.nodes) }

// Subscribe adds node id to multicast group g. Like Unsubscribe, it may be
// called at setup, from inside a sequential run, or between the runs of a
// partitioned one; frames already sent keep the members they were sent to.
func (l *LAN) Subscribe(g proto.GroupID, id proto.NodeID) {
	set := l.groups[g]
	if set == nil {
		set = make(map[proto.NodeID]bool)
		l.groups[g] = set
	}
	set[id] = true
	l.regroup(g)
}

// Unsubscribe removes node id from multicast group g.
func (l *LAN) Unsubscribe(g proto.GroupID, id proto.NodeID) {
	delete(l.groups[g], id)
	l.regroup(g)
}

// sortNodeIDs orders ids ascending; every deterministic iteration over node
// sets (multicast fan-out, Start order) funnels through it.
func sortNodeIDs(ids []proto.NodeID) {
	slices.Sort(ids)
}

// members is one membership epoch of a multicast group: its subscribers in
// ascending id order, so fan-out is deterministic, nil where a subscribed
// id names no node. A list is never mutated — Subscribe, Unsubscribe and
// AddNode replace it — so a frame in flight keeps its send-time member set
// and a grouped event can name members by index.
type members struct {
	nodes []*Node
}

var noMembers members

// regroup drops group g's member list after a membership change; the next
// groupMembers call builds the new one. A partitioned cluster builds it at
// once instead: LP goroutines read the lists, so groupMembers must not
// write them there. regroup runs single-threaded — at setup, inside a
// sequential event, or between partitioned runs.
func (l *LAN) regroup(g proto.GroupID) {
	if l.par == nil {
		delete(l.members, g)
	} else {
		l.members[g] = l.newMembers(g)
	}
}

// groupMembers returns group g's current member list.
func (l *LAN) groupMembers(g proto.GroupID) *members {
	ms := l.members[g]
	if ms == nil && l.par == nil {
		ms = l.newMembers(g)
		l.members[g] = ms
	}
	if ms == nil {
		return &noMembers
	}
	return ms
}

func (l *LAN) newMembers(g proto.GroupID) *members {
	set := l.groups[g]
	ids := make([]proto.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	ms := &members{nodes: make([]*Node, len(ids))}
	for i, id := range ids {
		ms.nodes[i] = l.nodes[id]
	}
	return ms
}

// Start invokes every handler's Start callback. Call once, before Run.
func (l *LAN) Start() {
	// Fault events are scheduled before any handler starts, so their
	// kernel ranks precede all protocol traffic deterministically.
	if l.faults != nil {
		l.scheduleFaults()
	}
	// Deterministic order: ascending node id.
	ids := make([]proto.NodeID, 0, len(l.nodes))
	for id := range l.nodes {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	for _, id := range ids {
		n := l.nodes[id]
		n.handler.Start(n)
	}
}

// Run advances the simulation by d of virtual time.
func (l *LAN) Run(d time.Duration) {
	deadline := l.Sim.Now() + d
	if l.par != nil {
		l.par.p.RunUntil(deadline)
	}
	// Sequential execution — and, in partitioned mode, keeping the shared
	// clock (the Now/Rand anchor read between runs) in step; the shared
	// heap is empty then, since every node schedules into its LP.
	l.Sim.RunUntil(deadline)
}

// Node is one simulated machine. It implements proto.Env for its handler.
type Node struct {
	id      proto.NodeID
	lan     *LAN
	handler proto.Handler
	nc      NodeConfig

	k  *sim.LP // event engine: the shared Simulator's, or this node's LP once partitioned
	lp int     // logical-process index; 0 in sequential mode

	down bool

	frozen       bool                 // down as a paused process: TCP frames held, not lost
	lostVolatile bool                 // down as a dead process: reset + VolatileLoser on restart
	partSides    map[proto.NodeID]int // current partition view (nil = fully connected)
	partSide     int                  // this node's side in partSides
	held         []heldFrame          // TCP frames parked while frozen, in arrival order
	rng          *rand.Rand           // per-node stream: injected datagram faults

	outFree  time.Duration   // instant the out-link becomes idle
	inFree   time.Duration   // instant the in-link becomes idle
	coreFree []time.Duration // instant each CPU core becomes idle
	cpuBusy  time.Duration   // accumulated CPU busy time, all cores
	diskFree time.Duration   // instant the disk becomes idle

	udpQueued    int // bytes in the datagram receive buffer
	udpQueuedMax int

	conns map[proto.NodeID]*conn

	stats Stats
}

var (
	_ proto.Env          = (*Node)(nil)
	_ proto.FreeTimerEnv = (*Node)(nil)
	_ proto.FreeWorkEnv  = (*Node)(nil)
	_ proto.GroupSizer   = (*Node)(nil)
)

// conn models one reliable FIFO channel with a bounded in-flight window.
// The send queue is a power-of-two ring buffer: popping advances head
// instead of re-slicing, so the backing array is reused forever and drained
// messages are released immediately.
type conn struct {
	from, to   *Node
	buf        []proto.Message // ring storage, len is a power of two
	head, tail uint32          // pop/push cursors; tail-head = queued count
	inflight   int
}

// heldFrame is one TCP frame parked in a frozen node's socket buffer,
// waiting for the process to thaw. delivered records which leg the
// freeze interrupted: false means the frame had just cleared the
// in-link (resume with receive accounting + CPU), true means receive
// CPU was already booked (resume straight at the handler + ack).
type heldFrame struct {
	c         *conn
	m         proto.Message
	size      int
	delivered bool
}

func (c *conn) queued() int { return int(c.tail - c.head) }

func (c *conn) push(m proto.Message) {
	if c.queued() == len(c.buf) {
		c.grow()
	}
	c.buf[c.tail&uint32(len(c.buf)-1)] = m
	c.tail++
}

func (c *conn) pop() proto.Message {
	i := c.head & uint32(len(c.buf)-1)
	m := c.buf[i]
	c.buf[i] = nil // release the reference as soon as it is on the wire
	c.head++
	return m
}

func (c *conn) grow() {
	n := len(c.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]proto.Message, n)
	for i, cnt := uint32(0), uint32(c.queued()); i < cnt; i++ {
		nb[i] = c.buf[(c.head+i)&uint32(len(c.buf)-1)]
	}
	c.tail = c.tail - c.head
	c.head = 0
	c.buf = nb
}

// ID implements proto.Env.
func (n *Node) ID() proto.NodeID { return n.id }

// Now implements proto.Env. In partitioned mode this is the node's LP
// clock, which trails the global window by less than the lookahead horizon.
func (n *Node) Now() time.Duration { return n.k.Now() }

// GroupSize implements proto.GroupSizer: the number of subscribers of g —
// or 0 ("cannot count") while the installed fault schedule duplicates
// datagrams: a receiver that consumes one multicast twice releases a
// receiver-counted message twice, so any count would undercount and
// recycle the message under a receiver still reading it.
func (n *Node) GroupSize(g proto.GroupID) int {
	if f := n.lan.faults; f != nil && f.Net.DupRate > 0 {
		return 0
	}
	return len(n.lan.groupMembers(g).nodes)
}

// Rand implements proto.Env.
func (n *Node) Rand() *rand.Rand { return n.lan.Sim.Rand() }

// Stats returns a copy of the node's traffic counters.
func (n *Node) Stats() Stats { return n.stats }

// CPUBusy returns total CPU busy time accumulated so far.
func (n *Node) CPUBusy() time.Duration { return n.cpuBusy }

// BufferPeak returns the high-water mark of the datagram receive buffer.
func (n *Node) BufferPeak() int { return n.udpQueuedMax }

// BufferQueued returns the bytes currently queued in the datagram buffer.
func (n *Node) BufferQueued() int { return n.udpQueued }

// SetDown marks the node crashed (true) or recovered (false).
//
// SetDown(true) freezes the process (fault.Freeze): it sends nothing,
// datagrams addressed to it are lost, and TCP frames addressed to it are
// held like a paused process's socket buffer (senders stall on window
// backpressure, losslessly). SetDown(false) delivers the held frames in
// arrival order and re-pumps every connection with queued messages; after
// a scheduled fault.Lose crash it instead takes the dead-process restart
// path (connection reset, proto.VolatileLoser).
func (n *Node) SetDown(down bool) {
	if down {
		n.crash(fault.Freeze)
		return
	}
	n.down = false
	if n.lostVolatile {
		n.restartLose()
	} else {
		n.thaw()
	}
	n.frozen = false
}

// crash takes the node down in the given fault mode (the evFaultCrash
// dispatch target).
func (n *Node) crash(m fault.Mode) {
	n.down = true
	if m == fault.Lose {
		n.frozen = false
		n.lostVolatile = true
	} else {
		n.frozen = true
	}
}

// thaw is the freeze-recovery path: frames the frozen process's socket
// buffer held are resumed in arrival order — frames still before their
// receive-CPU booking go through the normal arrive accounting, frames
// the freeze caught between CPU completion and hand-over go straight to
// the handler with their ack — then stalled connections re-pump.
func (n *Node) thaw() {
	held := n.held
	n.held = nil
	for i := range held {
		f := &held[i]
		if f.delivered {
			n.handler.Receive(f.c.from.id, f.m)
			f.c.sendAck(f.size)
		} else {
			n.stats.MsgsRecv++
			n.stats.BytesRecv += int64(f.size)
			done := n.reserveCPU(n.k.Now(), n.cpuCost(f.size))
			n.k.AtEvent(done, sim.TypedEvent{Kind: evTCPDeliver, D: int64(f.size), P1: f.m, P2: f.c})
		}
		held[i] = heldFrame{}
	}
	n.repumpAll()
}

// restartLose is the dead-process recovery path: connections to the
// node were reset while it was down (anything a preceding freeze held
// is discarded now, returning its window credit), its own queued-but-
// unsent messages are gone, and the handler sheds volatile soft state
// via proto.VolatileLoser if it implements it.
func (n *Node) restartLose() {
	n.lostVolatile = false
	held := n.held
	n.held = nil
	for i := range held {
		f := &held[i]
		n.stats.MsgsLost++
		n.stats.BytesLost += int64(f.size)
		f.c.sendAck(f.size)
		held[i] = heldFrame{}
	}
	for _, id := range n.sortedConnIDs() {
		c := n.conns[id]
		for c.queued() > 0 {
			m := c.pop()
			n.stats.MsgsLost++
			n.stats.BytesLost += int64(m.Size())
		}
	}
	if vl, ok := n.handler.(proto.VolatileLoser); ok {
		vl.LoseVolatile()
	}
}

// repumpAll restarts transmission on every connection with queued
// messages, in ascending destination order — the recovery half of the
// crash model (conn.ack deliberately skips pumping while the sender is
// down; this is what resumes the queues afterwards).
func (n *Node) repumpAll() {
	for _, id := range n.sortedConnIDs() {
		if c := n.conns[id]; c.queued() > 0 {
			n.pump(c)
		}
	}
}

// sortedConnIDs returns the destinations this node has connections to,
// ascending, so recovery-time iteration is deterministic.
func (n *Node) sortedConnIDs() []proto.NodeID {
	if len(n.conns) == 0 {
		return nil
	}
	ids := make([]proto.NodeID, 0, len(n.conns))
	for id := range n.conns {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	return ids
}

// reachable reports whether traffic from this node to `to` crosses the
// current partition view (trivially true when no partition is active).
func (n *Node) reachable(to proto.NodeID) bool {
	return n.partSides == nil || n.partSides[to] == n.partSide
}

// datagramFate decides what the network does to one datagram copy bound
// for `to`: how many copies arrive (0 when a partition or an injected drop
// eats it, counted lost at the sender; 2 when it is duplicated) and any
// injected extra delay. The out-link was charged either way — the NIC
// doesn't know the network will eat the frame. Injected faults draw from
// the sender's own RNG stream in a fixed order (drop first,
// short-circuiting the rest), so schedules replay identically in
// sequential and partitioned runs.
func (n *Node) datagramFate(to proto.NodeID, size int) (copies int, delay time.Duration) {
	if !n.reachable(to) {
		n.stats.MsgsLost++
		n.stats.BytesLost += int64(size)
		return 0, 0
	}
	if !n.lan.faultNetOn {
		return 1, 0
	}
	nf := &n.lan.faults.Net
	if nf.DropRate > 0 && n.rng.Float64() < nf.DropRate {
		n.stats.MsgsLost++
		n.stats.BytesLost += int64(size)
		return 0, 0
	}
	copies = 1
	if nf.DupRate > 0 && n.rng.Float64() < nf.DupRate {
		copies = 2
	}
	if nf.DelayRate > 0 && nf.DelayMax > 0 && n.rng.Float64() < nf.DelayRate {
		delay = time.Duration(n.rng.Int63n(int64(nf.DelayMax)))
	}
	return copies, delay
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Handler returns the installed protocol actor.
func (n *Node) Handler() proto.Handler { return n.handler }

func (n *Node) bandwidth() float64 {
	return n.lan.cfg.Bandwidth * n.nc.BandwidthScale
}

// cpuCost returns the processing cost of a message of the given size on
// this node's CPU.
func (n *Node) cpuCost(size int) time.Duration {
	c := n.lan.cfg.CPUPerMsg + time.Duration(size)*n.lan.cfg.CPUPerByte
	return time.Duration(float64(c) / n.nc.CPUScale)
}

// reserveCPU books d of CPU on core 0 (the message-handling core) starting
// no earlier than from, and returns the instant the booking completes.
func (n *Node) reserveCPU(from, d time.Duration) time.Duration {
	return n.reserveCore(0, from, d)
}

// reserveCore books d of CPU on the given core.
func (n *Node) reserveCore(core int, from, d time.Duration) time.Duration {
	if core < 0 || core >= len(n.coreFree) {
		core = 0
	}
	start := max(from, n.coreFree[core])
	n.coreFree[core] = start + d
	n.cpuBusy += d
	return n.coreFree[core]
}

// txTime returns the serialization delay of size bytes on a link of bw bits/s.
func txTime(size int, bw float64) time.Duration {
	return time.Duration(float64(size) * 8 / bw * float64(time.Second))
}

// sendOut charges the sender-owned half of a transmission — sending CPU and
// the out-link serialization — and returns the instant the frame's last bit
// reaches the receiver's in-link (propagation included). Multicast calls it
// once per group; unicast once per message. Only n's own state is touched,
// so it is safe inside a partition window.
func (n *Node) sendOut(size int) time.Duration {
	now := n.k.Now()
	cpuDone := n.reserveCPU(now, n.cpuCost(size))
	start := max(cpuDone, n.outFree)
	n.outFree = start + txTime(size, n.bandwidth())
	return n.outFree + n.lan.cfg.Latency
}

// admit reserves dst's in-link for a frame arriving at arrive and returns
// the instant its last bit clears the link. This is the one receiver-side
// coupling of a send: sequentially it runs inline after sendOut; in
// partitioned mode it is deferred to the window barrier, where the merged
// order across partitions reproduces the sequential reservation order.
func admit(dst *Node, arrive time.Duration, size int) time.Duration {
	rxStart := max(arrive, dst.inFree)
	dst.inFree = rxStart + txTime(size, dst.bandwidth())
	return dst.inFree
}

// Send implements proto.Env: reliable FIFO channel with windowed
// backpressure (TCP).
func (n *Node) Send(to proto.NodeID, m proto.Message) {
	if n.down {
		return
	}
	dst := n.lan.nodes[to]
	if dst == nil {
		return
	}
	if dst == n {
		n.deliverLocal(m)
		return
	}
	c := n.conns[to]
	if c == nil {
		c = &conn{from: n, to: dst}
		n.conns[to] = c
	}
	c.push(m)
	n.pump(c)
}

// pump transmits queued messages on c while window space is available. The
// whole transmit -> receive -> ack chain runs on typed events: no closures
// are allocated per message.
func (n *Node) pump(c *conn) {
	if !n.reachable(c.to.id) {
		return // partition: frames hold at the sender, re-pumped on heal
	}
	for c.queued() > 0 {
		m := c.buf[c.head&uint32(len(c.buf)-1)]
		size := m.Size()
		if c.inflight > 0 && c.inflight+size > n.lan.cfg.TCPBuf {
			return // window full; resumes on ack
		}
		c.pop()
		c.inflight += size
		n.stats.MsgsSent++
		n.stats.BytesSent += int64(size)
		arrive := n.sendOut(size)
		if pr := n.lan.par; pr != nil {
			pr.out[n.lp] = append(pr.out[n.lp],
				xrec{kind: xTCP, at: arrive, rank: n.k.NoteXCall(), size: size, c: c, msg: m})
		} else {
			rxEnd := admit(c.to, arrive, size)
			n.k.AtEvent(rxEnd, sim.TypedEvent{Kind: evTCPArrive, D: int64(size), P1: m, P2: c})
		}
	}
}

// arrive runs when a frame's last bit clears the receiver's in-link.
func (c *conn) arrive(m proto.Message, size int) {
	dst := c.to
	if dst.down {
		c.downFrame(m, size, false)
		return
	}
	dst.stats.MsgsRecv++
	dst.stats.BytesRecv += int64(size)
	done := dst.reserveCPU(dst.k.Now(), dst.cpuCost(size))
	dst.k.AtEvent(done, sim.TypedEvent{Kind: evTCPDeliver, D: int64(size), P1: m, P2: c})
}

// deliver runs when the receiver's CPU finishes processing the message: it
// hands the message to the handler and sends the ack back.
func (c *conn) deliver(m proto.Message, size int) {
	if c.to.down {
		c.downFrame(m, size, true)
		return
	}
	c.to.handler.Receive(c.from.id, m)
	c.sendAck(size)
}

// downFrame disposes of a frame that reached a down receiver at either
// leg (delivered tells which). A paused process holds it in its socket
// buffer: no ack, so the sender's window fills and stalls it —
// backpressure, not loss — and it is delivered on thaw. A dead process
// resets the connection: the frame is lost but its window credit returns,
// so the sender's window is whole once the peer recovers.
func (c *conn) downFrame(m proto.Message, size int, delivered bool) {
	dst := c.to
	if dst.frozen {
		dst.held = append(dst.held, heldFrame{c: c, m: m, size: size, delivered: delivered})
		return
	}
	dst.stats.MsgsLost++
	dst.stats.BytesLost += int64(size)
	c.sendAck(size)
}

// sendAck returns size bytes of window credit to the sender. The ack
// travels one wire latency; when the sender lives in another partition
// it crosses at the barrier (its firing time is a full latency away, so
// it always lands beyond the window).
func (c *conn) sendAck(size int) {
	dst := c.to
	ack := dst.k.Now() + dst.lan.cfg.Latency
	if pr := dst.lan.par; pr != nil && c.from.lp != dst.lp {
		pr.out[dst.lp] = append(pr.out[dst.lp],
			xrec{kind: xAck, at: ack, rank: dst.k.NoteXCall(), size: size, c: c})
	} else {
		dst.k.AtEvent(ack, sim.TypedEvent{Kind: evTCPAck, D: int64(size), P2: c})
	}
}

// ack opens window space at the sender and restarts its pump.
func (c *conn) ack(size int) {
	c.inflight -= size
	if !c.from.down {
		c.from.pump(c)
	}
}

// SendUDP implements proto.Env: lossy datagram. Size is computed once and
// carried in the typed event, so the arrival leg does not recompute it.
func (n *Node) SendUDP(to proto.NodeID, m proto.Message) {
	if n.down {
		return
	}
	dst := n.lan.nodes[to]
	if dst == nil {
		return
	}
	size := m.Size()
	n.stats.MsgsSent++
	n.stats.BytesSent += int64(size)
	if dst == n {
		n.deliverLocal(m)
		return
	}
	arrive := n.sendOut(size)
	copies, delay := n.datagramFate(to, size)
	arrive += delay
	for i := 0; i < copies; i++ {
		if pr := n.lan.par; pr != nil {
			pr.out[n.lp] = append(pr.out[n.lp],
				xrec{kind: xUDP, at: arrive, rank: n.k.NoteXCall(), size: size, src: n.id, dst: dst, msg: m})
		} else {
			rxEnd := admit(dst, arrive, size)
			n.k.AtEvent(rxEnd, sim.TypedEvent{Kind: evUDPArrive, A: int64(n.id), D: int64(size), P1: m, P2: dst})
		}
	}
}

// Multicast implements proto.Env: switch-replicated datagram. The sender's
// out-link carries the frame once; each subscriber's in-link carries it.
// Sequentially, members whose in-links free at the same instant share one
// arrival event (see fan).
func (n *Node) Multicast(g proto.GroupID, m proto.Message) {
	if n.down {
		return
	}
	size := m.Size()
	n.stats.MsgsSent++
	n.stats.BytesSent += int64(size)
	// The frame leaves the sender once, after CPU cost; every member shares
	// the same arrival instant at its in-link.
	arrive := n.sendOut(size)
	pr := n.lan.par
	// With no partition view and no datagram rules every copy arrives once,
	// undelayed. Deciding that once per frame keeps the per-member
	// datagramFate call out of the fault-free fan-out loop, which is the
	// hot path of every multicast-heavy run.
	unimpeded := n.partSides == nil && !n.lan.faultNetOn
	ms := n.lan.groupMembers(g)
	f := fan{k: n.k, ms: ms, one: evUDPArrive, many: evUDPArriveFan,
		ev: sim.TypedEvent{A: int64(n.id), D: int64(size), P1: m}}
	for i, dst := range ms.nodes {
		if dst == nil {
			continue
		}
		if dst == n {
			f.flush() // the loopback is a scheduling call of its own
			n.deliverLocal(m)
			continue
		}
		copies, delay := 1, time.Duration(0)
		if !unimpeded {
			// Per-member fate: the switch replicated the frame, but each
			// receiver's copy crosses its own link. Draw order follows the
			// sorted member loop, so it is identical under -par N.
			copies, delay = n.datagramFate(dst.id, size)
		}
		at := arrive + delay
		for c := 0; c < copies; c++ {
			if pr != nil {
				// Per-member records are appended — and their calls logged — in
				// sorted member order, so the replay admits them consecutively,
				// the same in-link reservation order as the sequential loop.
				pr.out[n.lp] = append(pr.out[n.lp],
					xrec{kind: xUDP, at: at, rank: n.k.NoteXCall(), size: size, src: n.id, dst: dst, msg: m})
			} else {
				f.add(i, admit(dst, at, size))
			}
		}
	}
	f.flush()
}

// fan schedules one multicast frame's per-member events of one leg — the
// in-link arrivals of one Multicast, or the CPU completions of one grouped
// arrival — a run of members at a time. In a sequential run those
// per-member scheduling calls are consecutive, so no other event can rank
// between two members due at the same instant, and one event that handles
// them in member order fires exactly where they would have. fan collects
// such a run as bits of a mask over the member list and schedules it as one
// event when the next member is due at another instant or is already in
// the run (a duplicated datagram). The owner flushes it before making any
// other scheduling call (the loopback) and at the end. A one-member run
// keeps the per-member kind; members past the 64th are scheduled singly.
type fan struct {
	k         *sim.LP
	ms        *members
	one, many uint8          // per-member and grouped event kinds
	ev        sim.TypedEvent // A, D and P1 of every event scheduled
	at        time.Duration  // instant of the open run
	mask      uint64         // members of the open run
}

// add appends member i, due at the given instant, to the open run.
func (f *fan) add(i int, at time.Duration) {
	bit := uint64(1) << i // 0 past the 64th member
	if f.mask != 0 && (at != f.at || f.mask&bit != 0 || bit == 0) {
		f.flush()
	}
	f.at = at
	if bit == 0 {
		f.schedule(f.one, 0, f.ms.nodes[i])
		return
	}
	f.mask |= bit
}

// flush schedules the open run, if any.
func (f *fan) flush() {
	switch {
	case f.mask == 0:
		return
	case f.mask&(f.mask-1) == 0:
		f.schedule(f.one, 0, f.ms.nodes[bits.TrailingZeros64(f.mask)])
	default:
		f.schedule(f.many, f.mask, f.ms)
	}
	f.mask = 0
}

func (f *fan) schedule(kind uint8, mask uint64, to any) {
	ev := f.ev
	ev.Kind, ev.B, ev.P2 = kind, int64(mask), to
	f.k.AtEvent(f.at, ev)
}

// datagramArrive applies the receive-buffer admission test to a datagram
// whose last bit cleared n's in-link and, if the frame is admitted, books
// its receive CPU; it reports when that CPU work is done. The caller
// schedules the delivery.
func (n *Node) datagramArrive(size int) (done time.Duration, ok bool) {
	if n.down {
		// A dead (or frozen — we don't model its kernel buffering
		// datagrams it will never drain) process loses the frame.
		n.stats.MsgsLost++
		n.stats.BytesLost += int64(size)
		return 0, false
	}
	if n.udpQueued+size > n.lan.cfg.UDPBuf {
		n.stats.MsgsDropped++
		n.stats.BytesDropped += int64(size)
		return 0, false
	}
	n.stats.MsgsRecv++
	n.stats.BytesRecv += int64(size)
	n.udpQueued += size
	if n.udpQueued > n.udpQueuedMax {
		n.udpQueuedMax = n.udpQueued
	}
	return n.reserveCPU(n.k.Now(), n.cpuCost(size)), true
}

// datagramDeliver runs when n's CPU has processed an admitted datagram: it
// drains the frame from the receive buffer and hands it to the handler.
func (n *Node) datagramDeliver(from proto.NodeID, m proto.Message, size int) {
	n.udpQueued -= size
	if n.down {
		n.stats.MsgsLost++
		n.stats.BytesLost += int64(size)
		return
	}
	n.handler.Receive(from, m)
}

// deliverLocal hands a self-addressed message to the handler, paying CPU
// but no network resources (loopback).
func (n *Node) deliverLocal(m proto.Message) {
	done := n.reserveCPU(n.k.Now(), n.cpuCost(m.Size()))
	n.k.AtEvent(done, sim.TypedEvent{Kind: evNodeDeliver, A: int64(n.id), P1: m, P2: n})
}

// After implements proto.Env. Timer callbacks keep firing while the node is
// down — SetDown models a frozen/partitioned process whose I/O is suppressed
// (Send/Multicast/receive are all gated on down), so periodic protocol
// timers resume their work transparently at recovery.
func (n *Node) After(d time.Duration, fn func()) proto.Timer {
	return n.k.After(d, fn)
}

// AfterFree implements proto.FreeTimerEnv: the callback is carried in a
// typed kernel event, so scheduling performs no allocation (no closure, no
// Timer box). Like After, the timer fires even while the node is down.
func (n *Node) AfterFree(d time.Duration, fn func()) {
	n.k.AfterEvent(d, sim.TypedEvent{Kind: evNodeTimer, P1: fn})
}

// AfterFreeArg implements proto.FreeTimerEnv; arg rides in the event's
// scalar field, so per-instance timers need no capturing closure.
func (n *Node) AfterFreeArg(d time.Duration, fn func(int64), arg int64) {
	n.k.AfterEvent(d, sim.TypedEvent{Kind: evNodeTimerArg, P1: fn, A: arg})
}

// Work implements proto.Env: occupy core 0 for d, then run fn.
func (n *Node) Work(d time.Duration, fn func()) {
	n.WorkOn(0, d, fn)
}

// WorkOn occupies the given core for d, then runs fn. P-SMR workers each
// own a core.
func (n *Node) WorkOn(core int, d time.Duration, fn func()) {
	d = time.Duration(float64(d) / n.nc.CPUScale)
	done := n.reserveCore(core, n.k.Now(), d)
	n.k.AtEvent(done, sim.TypedEvent{Kind: evNodeFunc, P1: fn, P2: n})
}

// WorkArg implements proto.FreeWorkEnv: Work on core 0 with a scalar
// argument carried in the typed event — no per-call closure.
func (n *Node) WorkArg(d time.Duration, fn func(int64), arg int64) {
	d = time.Duration(float64(d) / n.nc.CPUScale)
	done := n.reserveCore(0, n.k.Now(), d)
	n.k.AtEvent(done, sim.TypedEvent{Kind: evNodeFuncArg, P1: fn, P2: n, A: arg})
}

// DiskWrite implements proto.Env: synchronous sequential write of size
// bytes, then fn. Writes queue behind each other on the device.
func (n *Node) DiskWrite(size int, fn func()) {
	cfg := n.lan.cfg
	d := cfg.DiskLatency + txTime(size, cfg.DiskBandwidth)
	start := max(n.k.Now(), n.diskFree)
	n.diskFree = start + d
	n.stats.DiskBytes += int64(size)
	n.stats.DiskWrites++
	n.k.AtEvent(n.diskFree, sim.TypedEvent{Kind: evNodeFunc, P1: fn, P2: n})
}
