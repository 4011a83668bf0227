// Package proto defines the node/message/environment contracts shared by
// every protocol in this repository.
//
// Protocols are written as deterministic event-driven actors: a Handler
// reacts to messages and timers through single-threaded callbacks and talks
// to the outside world only through its Env. The same protocol code runs on
// the discrete-event simulated cluster (internal/lan), used by all paper
// reproductions, and on the realtime goroutine runtime (package runtime),
// used by the examples and by library consumers.
package proto

import (
	"math/rand"
	"time"
)

// NodeID identifies a process in the system.
type NodeID int

// GroupID identifies an ip-multicast group.
type GroupID int

// Message is anything a protocol puts on the wire. Size is the payload size
// in bytes; the substrates charge bandwidth, buffers and CPU based on it.
type Message interface {
	Size() int
}

// Timer is a cancellable scheduled callback. Cancel is idempotent and safe
// at any point in the timer's life: cancelling a timer that already fired,
// or was already cancelled, is a guaranteed no-op — substrates that recycle
// timer storage must ensure a stale handle can never cancel an unrelated,
// newer timer (the simulated kernel uses a generation counter for this).
// Protocols therefore never need to track whether a timer is still live
// before cancelling it.
type Timer interface {
	Cancel()
}

// Env is the world as seen by one protocol actor. All callbacks delivered
// through an Env (message receipt, timers, Work/DiskWrite completions) are
// serialized: a handler never runs concurrently with itself.
type Env interface {
	// ID returns the node this actor runs on.
	ID() NodeID
	// Now returns elapsed time since the run began.
	Now() time.Duration
	// Rand returns a deterministic per-run random source.
	Rand() *rand.Rand

	// Send transmits m to node `to` over a reliable FIFO channel (TCP-like:
	// no loss, backpressure through a bounded window).
	Send(to NodeID, m Message)
	// SendUDP transmits m as an unreliable datagram; it may be dropped when
	// the receiver's socket buffer is full.
	SendUDP(to NodeID, m Message)
	// Multicast transmits m to every subscriber of group g with
	// network-level replication: the sender pays the transmission once.
	// Delivery is unreliable, like SendUDP.
	Multicast(g GroupID, m Message)

	// After schedules fn to run on this actor after d. Callbacks scheduled
	// for the same instant run in scheduling order (FIFO), which is part of
	// the determinism contract every figure reproduction relies on.
	After(d time.Duration, fn func()) Timer
	// Work occupies this node's CPU for d, then runs fn. Use it to model
	// command-execution cost.
	Work(d time.Duration, fn func())
	// DiskWrite synchronously writes size bytes to stable storage, then
	// runs fn.
	DiskWrite(size int, fn func())
}

// FreeTimerEnv is the optional interface for allocation-free fire-and-forget
// timers. Env.After costs two small heap objects per call (the callback
// closure and the Timer box) — irrelevant for rare protocol timers, but
// steady-state ticks (batch flush, retransmission scans, traffic-generator
// pacing) fire at megahertz rates in aggregate. AfterFree schedules a
// pre-existing func value without returning a handle, and AfterFreeArg
// additionally passes a scalar argument so per-instance timers need no
// capturing closure. Callers hold the func in a field assigned once at
// Start; passing a method value inline would allocate the very closure the
// interface exists to avoid.
type FreeTimerEnv interface {
	AfterFree(d time.Duration, fn func())
	AfterFreeArg(d time.Duration, fn func(int64), arg int64)
}

// AfterFree schedules fn to run on env's actor after d, without a cancel
// handle. On environments implementing FreeTimerEnv it allocates nothing;
// elsewhere it falls back to After.
func AfterFree(env Env, d time.Duration, fn func()) {
	if fe, ok := env.(FreeTimerEnv); ok {
		fe.AfterFree(d, fn)
		return
	}
	env.After(d, fn)
}

// AfterFreeArg schedules fn(arg) to run on env's actor after d. See
// AfterFree.
func AfterFreeArg(env Env, d time.Duration, fn func(int64), arg int64) {
	if fe, ok := env.(FreeTimerEnv); ok {
		fe.AfterFreeArg(d, fn, arg)
		return
	}
	env.After(d, func() { fn(arg) })
}

// FreeWorkEnv is the optional interface for allocation-free Work
// completions carrying a scalar argument. Beyond avoiding the per-call
// closure, the argument lets callers that pair queued state with
// completions (pending replies, scheduler admissions) tag each completion
// with a monotonic id — which keeps the pairing correct even if a
// completion is dropped (the substrate discards completions addressed to a
// crashed node): the next surviving completion identifies and retires the
// orphaned entries.
type FreeWorkEnv interface {
	WorkArg(d time.Duration, fn func(int64), arg int64)
}

// WorkArg occupies env's CPU for d, then runs fn(arg). On environments
// implementing FreeWorkEnv it allocates nothing; elsewhere it falls back
// to Work with a capturing closure.
func WorkArg(env Env, d time.Duration, fn func(int64), arg int64) {
	if we, ok := env.(FreeWorkEnv); ok {
		we.WorkArg(d, fn, arg)
		return
	}
	env.Work(d, func() { fn(arg) })
}

// GroupSizer is the optional interface for environments that can report how
// many nodes subscribe to a multicast group. Senders of receiver-counted
// messages (SharedPool) arm them with it so the last receiver can recycle
// the message; on environments without it the message simply falls back
// to garbage collection. The count may only shrink through failures after
// the send (a crashed receiver never consumes), so a GroupSize taken at
// send time can overcount actual consumers — which leaves the message to
// the garbage collector — but never undercounts, which would recycle a
// message still in use.
type GroupSizer interface {
	GroupSize(g GroupID) int
}

// GroupSizeOf returns env's subscriber count for g, or 0 when env cannot
// report one (the message is then left unarmed, for the garbage collector). Wrapper environments forward it so the
// capability of the underlying network is not hidden by embedding.
func GroupSizeOf(env Env, g GroupID) int {
	if gs, ok := env.(GroupSizer); ok {
		return gs.GroupSize(g)
	}
	return 0
}

// MultiCore is the optional interface environments with multiple CPU cores
// implement; core 0 also handles messages. Protocols that exploit
// parallelism (P-SMR) type-assert for it and fall back to Work.
type MultiCore interface {
	WorkOn(core int, d time.Duration, fn func())
}

// WorkOn schedules work on a specific core when env supports it, else on
// the env's single CPU.
func WorkOn(env Env, core int, d time.Duration, fn func()) {
	if mc, ok := env.(MultiCore); ok {
		mc.WorkOn(core, d, fn)
		return
	}
	env.Work(d, fn)
}

// Downer is the optional interface environments implement to report
// whether their own process is currently crashed. Protocol timers fire
// "into the void" while a node is down (their sends are suppressed);
// most ticks are harmless then, but code that acts on the *absence* of
// traffic — failure detectors — must not observe silence or suspect
// peers while its own process is the silent one. Environments without
// the interface report never-down.
type Downer interface {
	Down() bool
}

// EnvDown reports whether env's process is down, defaulting to false on
// environments that cannot say.
func EnvDown(env Env) bool {
	if d, ok := env.(Downer); ok {
		return d.Down()
	}
	return false
}

// VolatileLoser is the optional interface handlers implement to model a
// crash that destroys volatile state (fault.Lose). LoseVolatile is
// called on restart, before any post-recovery message is delivered: the
// handler discards soft state a real process keeps only in memory —
// staged client values awaiting proposal, half-built batches — and then
// applies its configured durability model to the protocol state. The
// Ring Paxos agents offer three (see ringpaxos.Durability): retain
// promises and votes as free modeled stable storage (the legacy
// default), lose them honestly and retire from the acceptor role, or
// lose them and replay a write-ahead log whose appends were charged to
// the disk model via Env.DiskWrite. Handlers that do not implement the
// interface lose nothing on restart (equivalent to a freeze at the
// protocol layer).
type VolatileLoser interface {
	LoseVolatile()
}

// Handler is the protocol actor installed on a node.
type Handler interface {
	// Start is called exactly once, before any message is delivered.
	Start(env Env)
	// Receive is called for every message delivered to this node.
	Receive(from NodeID, m Message)
}

// HandlerFunc adapts plain functions to Handler for tests and probes.
type HandlerFunc struct {
	OnStart   func(env Env)
	OnReceive func(from NodeID, m Message)
}

// Start implements Handler.
func (h *HandlerFunc) Start(env Env) {
	if h.OnStart != nil {
		h.OnStart(env)
	}
}

// Receive implements Handler.
func (h *HandlerFunc) Receive(from NodeID, m Message) {
	if h.OnReceive != nil {
		h.OnReceive(from, m)
	}
}

// Multi composes several handlers on one node: Start and Receive fan out to
// each in order. Handlers must ignore messages that are not theirs (the
// convention throughout this repository: Receive type-switches and drops
// unknown types).
func Multi(hs ...Handler) Handler { return multiHandler(hs) }

type multiHandler []Handler

// Start implements Handler.
func (m multiHandler) Start(env Env) {
	for _, h := range m {
		h.Start(env)
	}
}

// Receive implements Handler.
func (m multiHandler) Receive(from NodeID, msg Message) {
	for _, h := range m {
		h.Receive(from, msg)
	}
}

// LoseVolatile implements VolatileLoser by forwarding to every composed
// handler that models volatile loss. Without this a protocol agent
// sharing its node with a traffic pump would silently keep state across
// a fault.Lose restart that a bare agent loses.
func (m multiHandler) LoseVolatile() {
	for _, h := range m {
		if vl, ok := h.(VolatileLoser); ok {
			vl.LoseVolatile()
		}
	}
}

// Raw is a plain payload message of a given size, used by substrates' own
// tests and by traffic generators.
type Raw struct {
	Bytes int
	Tag   int64
}

// Size implements Message.
func (r Raw) Size() int { return r.Bytes }
