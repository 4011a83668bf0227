package smr

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

const (
	// RequestBytes is the wire size of every client command (§4.4.2).
	RequestBytes = 256
	// UpdateReplyBytes is the reply size of insert/delete commands.
	UpdateReplyBytes = 256
	// QueryReplyBytes is the reply size of range queries.
	QueryReplyBytes = 8 << 10
)

// MsgReply carries a command result back to the client. Replies are pooled
// pointers: produced by the answering replica (or the stand-alone server),
// consumed and recycled by the addressed client.
type MsgReply struct {
	Client int64
	Seq    int64
	Sub    int
	Bytes  int
	Reply  Reply
}

// Size implements proto.Message.
func (m MsgReply) Size() int { return m.Bytes }

var replyPool proto.MsgPool[MsgReply]

// pendingReply parks a finished command's answer while its modeled
// execution time elapses on the CPU. Work completions on a core are FIFO
// and each carries its entry's monotonic id, so the queue pairs every
// completion with its reply without closures — and survives dropped
// completions (a crashed node discards in-flight Work): the next surviving
// completion retires any orphaned entries in front of it.
type pendingReply struct {
	id   int64
	send bool
	to   proto.NodeID
	m    *MsgReply
}

// replyQueue is the pending-reply FIFO shared by Replica and CSServer.
type replyQueue struct {
	q      core.FIFO[pendingReply]
	nextID int64
}

// add parks p and returns the id its Work completion must present.
func (rq *replyQueue) add(p pendingReply) int64 {
	rq.nextID++
	p.id = rq.nextID
	rq.q.Push(p)
	return p.id
}

// complete pops the entry with the given id, discarding (and recycling)
// entries whose completions were dropped while the node was down.
func (rq *replyQueue) complete(id int64) (pendingReply, bool) {
	for rq.q.Len() > 0 {
		p := rq.q.Pop()
		if p.id == id {
			return p, true
		}
		replyPool.Put(p.m) // orphaned by a dropped completion
	}
	return pendingReply{}, false
}

// Replica is one state-machine replica: a learner of an M-Ring Paxos
// instance that executes delivered commands against a local Service and
// replies to clients. With Speculative set it implements §4.2.1: commands
// execute at Phase 2A receipt, overlapping ordering, and reply only once
// the order is confirmed; a mismatch triggers logical rollback.
type Replica struct {
	// Agent is this node's learner agent. Replica wires its callbacks.
	Agent *ringpaxos.MAgent
	// Service is the local deterministic state machine.
	Service Service
	// Speculative selects speculative execution (requires
	// Agent.Cfg.Speculative).
	Speculative bool
	// Index and GroupSize locate this replica in its replica group, to
	// decide which replica executes queries and answers clients.
	Index     int
	GroupSize int
	// ClientNode maps a command's client id to the node to answer;
	// identity by default.
	ClientNode func(client int64) proto.NodeID
	// ExactlyOnce enables the replicated dedup table: a command whose
	// (client, seq) is already applied — a retry that won a second
	// consensus instance — is answered from the table instead of
	// re-executed. Off by default (zero cost for existing deployments).
	ExactlyOnce bool

	env proto.Env

	// ExecutedCmds counts commands this replica actually executed.
	ExecutedCmds int64
	// DiscardedCmds counts delivered commands it discarded (queries it was
	// not responsible for — the overhead that caps read scalability,
	// §4.1).
	DiscardedCmds int64
	// Rollbacks counts speculative rollbacks.
	Rollbacks int64
	// DedupHits counts commands suppressed by the exactly-once table.
	DedupHits int64

	// dedup is the per-stream last-applied-seq table (ExactlyOnce only).
	// Each client sub-query stream deduplicates independently, so the key
	// composes the client id with the sub index.
	dedup *core.DedupTable
	// lastReply caches each stream's most recent answer so a suppressed
	// retry can still be answered (the ack the client lost).
	lastReply map[int64]Reply

	// speculative bookkeeping
	specLog   []*specEntry
	confirmed int // prefix of specLog whose order is confirmed

	// non-speculative completion queue (FIFO with Work completions)
	replyQ  replyQueue
	replyFn func(int64)
}

// specEntry records one speculatively executed instance.
type specEntry struct {
	inst    int64
	cmds    []Command
	replies []Reply
	undos   []Undo
	done    bool // modeled execution time fully charged
	acked   bool // order confirmed
	replied bool
}

var (
	_ proto.Handler       = (*Replica)(nil)
	_ proto.VolatileLoser = (*Replica)(nil)
)

// Start implements proto.Handler.
func (r *Replica) Start(env proto.Env) {
	r.env = env
	if r.GroupSize == 0 {
		r.GroupSize = 1
	}
	if r.ClientNode == nil {
		r.ClientNode = func(c int64) proto.NodeID { return proto.NodeID(c) }
	}
	if r.Speculative {
		r.Agent.Cfg.Speculative = true
		r.Agent.SpecDeliver = r.onSpecDeliver
		r.Agent.Confirm = r.onConfirm
	} else {
		r.Agent.Deliver = r.onDeliver
	}
	if r.ExactlyOnce {
		r.dedup = core.NewDedupTable()
		r.lastReply = make(map[int64]Reply)
	}
	r.replyFn = r.completeReply
	r.Agent.Start(env)
}

// dedupKey identifies one exactly-once stream: partitioned queries split a
// request into sub-values sharing (client, seq), so each sub index
// deduplicates as its own stream.
func dedupKey(c Command) int64 { return c.Client<<8 | int64(c.Sub) }

func (r *Replica) completeReply(id int64) {
	if p, ok := r.replyQ.complete(id); ok && p.send {
		r.env.Send(p.to, p.m)
	}
}

// Receive implements proto.Handler.
func (r *Replica) Receive(from proto.NodeID, m proto.Message) {
	r.Agent.Receive(from, m)
}

// LoseVolatile implements proto.VolatileLoser: a crash that destroys the
// process's volatile state reaches the replica's ring agent. The service
// state, the dedup table and the pending replies survive it: the replica
// does not yet model losing and rebuilding its application state.
func (r *Replica) LoseVolatile() {
	r.Agent.LoseVolatile()
}

// responsible reports whether this replica executes/answers for the client.
func (r *Replica) responsible(c Command) bool {
	return int(c.Client)%r.GroupSize == r.Index
}

func commands(v core.Value) []Command {
	cs, _ := v.Payload.([]Command)
	return cs
}

func replyBytes(cs []Command) int {
	for _, c := range cs {
		if c.Op == OpQuery {
			return QueryReplyBytes
		}
	}
	return UpdateReplyBytes
}

// --- non-speculative path ---

func (r *Replica) onDeliver(inst int64, v core.Value) {
	cs := commands(v)
	if len(cs) == 0 {
		return
	}
	if r.ExactlyOnce && r.dedup.Dup(dedupKey(cs[0]), cs[0].Seq) {
		// A retry won a second consensus instance after the first was
		// applied: answer from the table, never re-execute (at-most-once).
		r.DedupHits += int64(len(cs))
		c0 := cs[0]
		if r.responsible(c0) {
			m := replyPool.Get()
			m.Client, m.Seq, m.Sub = c0.Client, c0.Seq, c0.Sub
			m.Bytes, m.Reply = replyBytes(cs), r.lastReply[dedupKey(c0)]
			r.env.Send(r.ClientNode(c0.Client), m)
		}
		return
	}
	resp := r.responsible(cs[0])
	if cs[0].Op == OpQuery && !resp {
		// Only one replica executes a query (§4.4.2); the rest deliver and
		// discard it.
		r.DiscardedCmds += int64(len(cs))
		return
	}
	var cost time.Duration
	var last Reply
	for _, c := range cs {
		rep := apply(r.Service, c)
		cost += r.Service.Cost(c, rep)
		last = rep
		r.ExecutedCmds++
	}
	c0 := cs[0]
	if r.ExactlyOnce {
		r.dedup.Commit(dedupKey(c0), c0.Seq, inst)
		r.lastReply[dedupKey(c0)] = last
	}
	p := pendingReply{send: resp}
	if resp {
		m := replyPool.Get()
		m.Client, m.Seq, m.Sub, m.Bytes, m.Reply = c0.Client, c0.Seq, c0.Sub, replyBytes(cs), last
		p.to, p.m = r.ClientNode(c0.Client), m
	}
	id := r.replyQ.add(p)
	proto.WorkArg(r.env, cost, r.replyFn, id)
}

// --- speculative path (§4.2.1) ---

// onSpecDeliver executes one client request (one value) as soon as its
// Phase 2A arrives. One specEntry is appended per value, in execution order.
func (r *Replica) onSpecDeliver(inst int64, v core.Value) {
	cs := commands(v)
	if len(cs) == 0 {
		return
	}
	e := r.execute(&specEntry{inst: inst}, cs)
	r.specLog = append(r.specLog, e)
}

// execute runs cs against the service, filling e and charging the modeled
// cost; e.done flips when the modeled execution time elapses.
func (r *Replica) execute(e *specEntry, cs []Command) *specEntry {
	var cost time.Duration
	for _, c := range cs {
		if c.Op == OpQuery && !r.responsible(c) {
			r.DiscardedCmds++
			e.cmds = append(e.cmds, c)
			e.replies = append(e.replies, Reply{})
			e.undos = append(e.undos, nil)
			continue
		}
		rep, undo := r.Service.Execute(c)
		cost += r.Service.Cost(c, rep)
		e.cmds = append(e.cmds, c)
		e.replies = append(e.replies, rep)
		e.undos = append(e.undos, undo)
		r.ExecutedCmds++
	}
	r.env.Work(cost, func() {
		e.done = true
		r.maybeReply(e)
	})
	return e
}

// onConfirm fires when instance inst's order is confirmed; every specEntry
// of that instance (contiguous, in value order) becomes answerable. If the
// speculative execution order diverges from the confirmed order, the
// unconfirmed suffix is rolled back and re-executed (§4.2.1).
func (r *Replica) onConfirm(inst int64) {
	if r.confirmed < len(r.specLog) && r.specLog[r.confirmed].inst == inst {
		for r.confirmed < len(r.specLog) && r.specLog[r.confirmed].inst == inst {
			e := r.specLog[r.confirmed]
			r.confirmed++
			e.acked = true
			r.maybeReply(e)
		}
		r.trim()
		return
	}
	// Mismatch (or instance never speculatively executed): roll back every
	// unconfirmed speculative execution in reverse order...
	r.Rollbacks++
	suffix := append([]*specEntry(nil), r.specLog[r.confirmed:]...)
	for i := len(suffix) - 1; i >= 0; i-- {
		for j := len(suffix[i].undos) - 1; j >= 0; j-- {
			if u := suffix[i].undos[j]; u != nil {
				u()
			}
		}
	}
	r.specLog = r.specLog[:r.confirmed]
	// ...then re-execute the confirmed instance's entries first, followed
	// by the remaining rolled-back entries in their old relative order.
	for _, e := range suffix {
		if e.inst == inst {
			ne := r.execute(&specEntry{inst: e.inst, acked: true}, e.cmds)
			r.specLog = append(r.specLog, ne)
			r.confirmed = len(r.specLog)
		}
	}
	for _, e := range suffix {
		if e.inst != inst {
			ne := r.execute(&specEntry{inst: e.inst}, e.cmds)
			r.specLog = append(r.specLog, ne)
		}
	}
}

// maybeReply answers the client once an entry is both executed and
// confirmed.
func (r *Replica) maybeReply(e *specEntry) {
	if !e.done || !e.acked || e.replied || len(e.cmds) == 0 {
		return
	}
	e.replied = true
	c0 := e.cmds[0]
	if !r.responsible(c0) {
		return
	}
	m := replyPool.Get()
	m.Client, m.Seq, m.Sub = c0.Client, c0.Seq, c0.Sub
	m.Bytes, m.Reply = replyBytes(e.cmds), e.replies[len(e.replies)-1]
	r.env.Send(r.ClientNode(c0.Client), m)
}

// trim drops fully processed prefix entries to bound memory.
func (r *Replica) trim() {
	i := 0
	for i < r.confirmed && i < len(r.specLog) && r.specLog[i].replied {
		i++
	}
	if i > 0 {
		r.specLog = r.specLog[i:]
		r.confirmed -= i
	}
}
