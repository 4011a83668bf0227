// Package multiring implements Multi-Ring Paxos (Chapter 5, DSN 2012): an
// atomic multicast built from independent M-Ring Paxos instances, one per
// group, coordinated by three parameters:
//
//   - λ: the maximum expected consensus rate of any ring; a ring whose rate
//     falls below λ proposes skip instances to keep pace,
//   - ∆: the sampling interval at which each coordinator compares its rate
//     µ to λ and proposes skips,
//   - M: how many consecutive consensus instances a learner consumes from
//     one ring before moving to the next during deterministic merge.
//
// Learners that subscribe to multiple groups interleave the rings'
// decisions with a deterministic round-robin merge in group-id order, which
// yields the uniform partial order of atomic multicast.
package multiring

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// RingMsg wraps an M-Ring Paxos message with its ring id so several rings
// can share nodes (Chapter 5: "machines can be shared among rings"). It is
// a pooled pointer under the receiver-count rule (proto.SharedPool): a Send
// arms one receiver, a multicast the group's subscriber count, and the
// receiving Node releases it once the inner agent returns. A datagram is
// never armed, because a duplicating network delivers it twice.
type RingMsg struct {
	proto.Refs
	Ring  int
	Inner proto.Message
}

// Size implements proto.Message.
func (m *RingMsg) Size() int { return 4 + m.Inner.Size() }

// Reset implements proto.Shared.
func (m *RingMsg) Reset() { m.Ring, m.Inner = 0, nil }

var ringMsgPool proto.SharedPool[RingMsg, *RingMsg]

// skipMark is the payload of a skip batch: it stands for N consecutive
// empty consensus instances.
type skipMark struct{ N int64 }

// SkipBatch builds the batch a coordinator proposes to represent n skipped
// instances in a single consensus execution.
func SkipBatch(n int64) core.Batch {
	return core.Batch{Vals: []core.Value{{ID: -1, Bytes: 16, Payload: skipMark{N: n}}}}
}

// skipCount returns the number of virtual instances a batch stands for:
// n for a skip batch, 1 otherwise.
func skipCount(b core.Batch) (int64, bool) {
	if len(b.Vals) == 1 {
		if s, ok := b.Vals[0].Payload.(skipMark); ok {
			return s.N, true
		}
	}
	return 1, false
}

// ringEnv namespaces an agent's traffic with its ring id.
type ringEnv struct {
	proto.Env
	ring int
}

// wrap returns m in an envelope armed for the given number of receivers.
func (e ringEnv) wrap(m proto.Message, receivers int) *RingMsg {
	w := ringMsgPool.Get()
	w.Ring, w.Inner = e.ring, m
	w.Arm(receivers)
	return w
}

func (e ringEnv) Send(to proto.NodeID, m proto.Message) { e.Env.Send(to, e.wrap(m, 1)) }

func (e ringEnv) SendUDP(to proto.NodeID, m proto.Message) { e.Env.SendUDP(to, e.wrap(m, 0)) }

func (e ringEnv) Multicast(g proto.GroupID, m proto.Message) {
	e.Env.Multicast(g, e.wrap(m, proto.GroupSizeOf(e.Env, g)))
}

// AfterFree / AfterFreeArg forward the allocation-free timer path of the
// underlying environment (the embedded interface would otherwise hide it
// from type assertions).
func (e ringEnv) AfterFree(d time.Duration, fn func()) {
	proto.AfterFree(e.Env, d, fn)
}

func (e ringEnv) AfterFreeArg(d time.Duration, fn func(int64), arg int64) {
	proto.AfterFreeArg(e.Env, d, fn, arg)
}

// Down forwards proto.Downer so per-ring failure detectors stay quiet
// while the hosting process is crashed.
func (e ringEnv) Down() bool { return proto.EnvDown(e.Env) }

// GroupSize forwards proto.GroupSizer (0 when the underlying environment
// has none): ring agents arm their multicasts with it.
func (e ringEnv) GroupSize(g proto.GroupID) int { return proto.GroupSizeOf(e.Env, g) }

// Node hosts one process's roles across all rings: any number of ring
// agents (acceptor/coordinator/learner per ring), an optional skip Pacer
// per coordinated ring, and an optional deterministic Merger when the
// process learns from one or more groups.
type Node struct {
	agents map[int]*ringpaxos.MAgent
	pacers []*Pacer
	Merger *Merger

	env proto.Env
}

var (
	_ proto.Handler       = (*Node)(nil)
	_ proto.VolatileLoser = (*Node)(nil)
)

// NewNode returns an empty multi-ring process.
func NewNode() *Node {
	return &Node{agents: make(map[int]*ringpaxos.MAgent)}
}

// AddRing installs this process's agent for ring id.
func (n *Node) AddRing(id int, a *ringpaxos.MAgent) {
	n.agents[id] = a
	if n.Merger != nil {
		n.Merger.attach(id, a)
	}
}

// AddPacer installs a skip pacer for a ring this node coordinates.
func (n *Node) AddPacer(p *Pacer) { n.pacers = append(n.pacers, p) }

// SetMerger installs the deterministic merge for the given subscribed ring
// ids. Call before Start, after AddRing.
func (n *Node) SetMerger(m *Merger) {
	n.Merger = m
	for _, id := range m.rings {
		if a, ok := n.agents[id]; ok {
			m.attach(id, a)
		}
	}
}

// Agent returns this node's agent for ring id, or nil.
func (n *Node) Agent(id int) *ringpaxos.MAgent { return n.agents[id] }

// ringIDs returns the ids of the rings this node hosts an agent for,
// ascending, so per-ring iteration never depends on map order.
func (n *Node) ringIDs() []int {
	ids := make([]int, 0, len(n.agents))
	for id := range n.agents {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Start implements proto.Handler.
func (n *Node) Start(env proto.Env) {
	n.env = env
	for _, id := range n.ringIDs() {
		n.agents[id].Start(ringEnv{Env: env, ring: id})
	}
	if n.Merger != nil {
		n.Merger.start(env)
	}
	for _, p := range n.pacers {
		p.start(env)
	}
}

// Receive implements proto.Handler: unwraps ring messages, dispatches, and
// releases the envelope once the agent has returned.
func (n *Node) Receive(from proto.NodeID, m proto.Message) {
	rm, ok := m.(*RingMsg)
	if !ok {
		return
	}
	if a, ok := n.agents[rm.Ring]; ok {
		a.Receive(from, rm.Inner)
	}
	ringMsgPool.Release(rm)
}

// LoseVolatile implements proto.VolatileLoser: a crash that destroys the
// process's volatile state reaches every ring agent it hosts, in
// ascending ring id.
func (n *Node) LoseVolatile() {
	for _, id := range n.ringIDs() {
		n.agents[id].LoseVolatile()
	}
}

// Pacer implements the coordinator side of Chapter 5, Algorithm 1 (Task 2):
// every ∆ it compares the ring's consensus rate against λ and proposes one
// batched skip instance to make up the difference.
type Pacer struct {
	// Agent is the coordinator's agent for the paced ring.
	Agent *ringpaxos.MAgent
	// Lambda is the expected consensus rate, in instances per second.
	Lambda float64
	// Delta is the sampling interval.
	Delta time.Duration

	env    proto.Env
	prevK  int64
	tickFn func()
}

func (p *Pacer) start(env proto.Env) {
	p.env = env
	if p.Delta == 0 {
		p.Delta = time.Millisecond
	}
	p.tickFn = p.tick
	p.arm()
}

func (p *Pacer) arm() { proto.AfterFree(p.env, p.Delta, p.tickFn) }

func (p *Pacer) tick() {
	if !p.Agent.IsCoordinator() {
		// Not (or no longer) this ring's coordinator — a failover may have
		// moved the role, or Phase 1 is still running. Keep sampling so a
		// later takeover resumes pacing from a fresh interval. ProposeBatch
		// no-ops in this state anyway, so the guard changes no schedule.
		p.prevK = p.Agent.InstancesStarted()
		p.arm()
		return
	}
	// µ = real instances started since the previous tick. prevK is
	// resampled after proposing the skip so the skip instance itself
	// never counts toward the next interval's rate.
	mu := p.Agent.InstancesStarted() - p.prevK
	target := int64(p.Lambda * p.Delta.Seconds())
	if mu < target {
		p.Agent.ProposeBatch(SkipBatch(target - mu))
	}
	p.prevK = p.Agent.InstancesStarted()
	p.arm()
}

// Merger performs the deterministic merge of Chapter 5, Algorithm 1
// (Task 4): in ascending group order, consume M consensus instances from
// each subscribed ring, delivering application values and skipping skip
// instances; block whenever the current ring has nothing decided yet.
type Merger struct {
	// M is the number of consecutive instances taken per ring per turn.
	M int64
	// ExecCost is the per-value processing cost at this learner.
	ExecCost time.Duration
	// Tail holds the delivery counters and the Deliver hook, which receives
	// every application value in merged order, numbered by that order.
	core.Tail
	// Trace, if set, folds the merged delivery sequence into a
	// delivery-equivalence digest (see core.DelivTrace). Pure observation:
	// it sends nothing and consumes no simulated time.
	Trace *core.DelivTrace
	// Dedup, if set, suppresses stamped values whose (client, seq) the
	// merged sequence already delivered — a client retry that won a second
	// consensus instance, possibly on a different ring. The decision is a
	// pure function of the merged order, so every subscriber suppresses
	// the same values. Nil (the default) disables the check.
	Dedup *core.DedupTable

	rings  []int
	queues []tokenQueue // parallel to rings
	cur    int
	budget int64
	busy   bool
	seq    int64 // merged delivery counter, the Trace's instance axis

	env proto.Env

	// ReceivedBytes counts payload received per ring before merging.
	ReceivedBytes map[int]int64
	// DupSuppressed counts values the Dedup table suppressed.
	DupSuppressed int64
}

type token struct {
	n   int64 // virtual instances remaining
	val core.Batch
}

// tokenQueue is the merge buffer of one subscribed ring: a reusable FIFO,
// since this is the learner buffer whose occupancy the λ experiments
// measure — it must tolerate unbounded growth without allocating per token.
type tokenQueue = core.FIFO[token]

// NewMerger creates a merger over the given subscribed ring ids.
func NewMerger(rings []int, m int64) *Merger {
	sorted := append([]int(nil), rings...)
	sort.Ints(sorted)
	if m <= 0 {
		m = 1
	}
	return &Merger{
		M:             m,
		rings:         sorted,
		queues:        make([]tokenQueue, len(sorted)),
		budget:        m,
		ReceivedBytes: make(map[int]int64),
	}
}

// queueOf returns the merge queue of ring id (rings are few; linear scan).
func (mg *Merger) queueOf(ring int) *tokenQueue {
	for i, r := range mg.rings {
		if r == ring {
			return &mg.queues[i]
		}
	}
	return nil
}

func (mg *Merger) attach(ring int, a *ringpaxos.MAgent) {
	a.DeliverBatch = func(_ int64, b core.Batch) { mg.Push(ring, b) }
}

func (mg *Merger) start(env proto.Env) { mg.env = env }

// Start binds the merger to an environment. Deployments that wire mergers
// manually (P-SMR fans one ring out to several workers) call it directly;
// Node.SetMerger does it automatically.
func (mg *Merger) Start(env proto.Env) { mg.start(env) }

// Push feeds one decided consensus instance from ring into the merge.
// Instances must be pushed in each ring's decision order.
func (mg *Merger) Push(ring int, b core.Batch) {
	n, isSkip := skipCount(b)
	if isSkip {
		b = core.Batch{}
	} else {
		mg.ReceivedBytes[ring] += int64(b.Size())
	}
	if q := mg.queueOf(ring); q != nil {
		q.Push(token{n: n, val: b})
	}
	mg.drain()
}

// Buffered returns the number of buffered (not yet merged) tokens across
// rings — the learner buffer whose overflow the λ experiments provoke.
func (mg *Merger) Buffered() int {
	n := 0
	for i := range mg.queues {
		n += mg.queues[i].Len()
	}
	return n
}

// drain advances the merge as far as possible; value-carrying tokens pass
// through the node's CPU at ExecCost per value.
func (mg *Merger) drain() {
	if mg.busy {
		return
	}
	for {
		q := &mg.queues[mg.cur]
		if q.Len() == 0 {
			return // block until the current ring makes progress
		}
		t := q.Front()
		use := t.n
		if use > mg.budget {
			use = mg.budget
		}
		t.n -= use
		mg.budget -= use
		done := t.n == 0
		val := t.val
		if done {
			q.Pop()
		}
		if mg.budget == 0 {
			mg.cur = (mg.cur + 1) % len(mg.rings)
			mg.budget = mg.M
		}
		if len(val.Vals) > 0 && done {
			if mg.ExecCost > 0 {
				mg.busy = true
				mg.env.Work(time.Duration(len(val.Vals))*mg.ExecCost, func() {
					mg.busy = false
					mg.deliverBatch(val)
					mg.drain()
				})
				return
			}
			mg.deliverBatch(val)
		}
	}
}

func (mg *Merger) deliverBatch(b core.Batch) {
	for _, v := range b.Vals {
		if mg.Dedup != nil && v.Client != 0 && !mg.Dedup.Commit(v.Client, v.Seq, mg.seq) {
			mg.DupSuppressed++
			continue
		}
		mg.seq++
		mg.Tail.Value(mg.Trace, mg.env, mg.seq-1, v)
	}
}
