package repro

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// Cluster is the realtime runtime: it drives the same protocol actors the
// simulator runs, but with goroutines, channels and wall-clock timers, for
// in-process replicated applications and the runnable examples.
//
// Each node owns one goroutine that serializes every callback (message
// receipt, timers, Work and DiskWrite completions), preserving the actor
// model's single-threaded contract. ip-multicast is implemented as sender
// fan-out, which keeps the semantics (every subscriber receives the
// message) even though in-process transport has no real switch.
//
// Membership is frozen at Start: nodes, group subscriptions and the WAL
// directory are set up under mu before it and never change after, which is
// what lets the per-message paths (Send, SendUDP, Multicast, DiskWrite)
// read them without taking a lock.
type Cluster struct {
	mu      sync.Mutex // guards setup and the started/closed transitions
	nodes   map[proto.NodeID]*ClusterNode
	subs    map[proto.GroupID]map[proto.NodeID]bool
	started bool
	// groups is each group's fan-out list, resolved from subs at Start.
	groups map[proto.GroupID][]*ClusterNode
	start  time.Time
	seed   int64
	closed bool
	wg     sync.WaitGroup
	// walDir, when non-empty, backs every node's DiskWrite with a real
	// synchronous append to dir/node-<id>.wal (see EnableWAL). walErr
	// records the first file error; writes degrade to in-memory after it.
	walDir string
	walErr atomic.Pointer[error]
}

// NewCluster returns an empty realtime cluster.
func NewCluster(seed int64) *Cluster {
	return &Cluster{
		nodes: make(map[proto.NodeID]*ClusterNode),
		subs:  make(map[proto.GroupID]map[proto.NodeID]bool),
		seed:  seed,
	}
}

// event is one unit of work for a node's loop.
type event func()

// ClusterNode is one realtime process; it implements Env for its handler.
type ClusterNode struct {
	id      proto.NodeID
	c       *Cluster
	handler proto.Handler
	inbox   chan event
	quit    chan struct{}
	rng     *rand.Rand
	// wal is the node's durable-write file, opened lazily on the node's
	// own loop at the first DiskWrite after EnableWAL. Accessed only from
	// the loop goroutine.
	wal *os.File
}

var (
	_ proto.Env          = (*ClusterNode)(nil)
	_ proto.FreeTimerEnv = (*ClusterNode)(nil)
)

// mustBeSetup panics when op comes after Start. A node added late would
// have no loop: senders would fill its inbox and then block for good.
// Callers hold mu.
func (c *Cluster) mustBeSetup(op string) {
	if c.started {
		panic("repro: Cluster." + op + " after Start: membership is frozen once the cluster runs")
	}
}

// AddNode installs a handler on a new node. It panics after Start.
func (c *Cluster) AddNode(id NodeID, h Handler) *ClusterNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustBeSetup("AddNode")
	n := &ClusterNode{
		id:      id,
		c:       c,
		handler: h,
		inbox:   make(chan event, 4096),
		quit:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(c.seed + int64(id))),
	}
	c.nodes[id] = n
	return n
}

// Subscribe adds node id to multicast group g; the node may be added
// later. It panics after Start.
func (c *Cluster) Subscribe(g GroupID, id NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustBeSetup("Subscribe")
	set := c.subs[g]
	if set == nil {
		set = make(map[proto.NodeID]bool)
		c.subs[g] = set
	}
	set[id] = true
}

// Start freezes membership, launches every node's loop and invokes the
// handlers' Start callbacks on their own goroutines. It panics when called
// twice: a second loop per node would break the one-goroutine-per-actor
// contract.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustBeSetup("Start")
	c.started = true
	c.groups = make(map[proto.GroupID][]*ClusterNode, len(c.subs))
	for g, set := range c.subs {
		var dsts []*ClusterNode
		for id := range set {
			if d := c.nodes[id]; d != nil {
				dsts = append(dsts, d)
			}
		}
		c.groups[g] = dsts
	}
	c.start = time.Now()
	// Every inbox gets its Start before any loop runs: a handler must see
	// Start ahead of the first message a faster neighbour sends it.
	for _, n := range c.nodes {
		n.enqueue(func() { n.handler.Start(n) })
	}
	for _, n := range c.nodes {
		c.wg.Add(1)
		go n.loop(&c.wg)
	}
}

// Stop terminates all node loops and waits for them to exit.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nodes := make([]*ClusterNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		close(n.quit)
	}
	c.wg.Wait()
	// Loops have exited; their WAL files can be closed off-loop safely.
	for _, n := range nodes {
		if n.wal != nil {
			n.wal.Close()
		}
	}
}

// Node returns the node with the given id, or nil.
func (c *Cluster) Node(id NodeID) *ClusterNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

func (n *ClusterNode) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case ev := <-n.inbox:
			ev()
		}
	}
}

// enqueue delivers an event to this node's loop, dropping it if the node
// has stopped.
func (n *ClusterNode) enqueue(ev event) {
	select {
	case n.inbox <- ev:
	case <-n.quit:
	}
}

// ID implements Env.
func (n *ClusterNode) ID() NodeID { return n.id }

// Now implements Env: elapsed wall time since Start.
func (n *ClusterNode) Now() time.Duration { return time.Since(n.c.start) }

// Rand implements Env. It must only be used from the node's own callbacks.
func (n *ClusterNode) Rand() *rand.Rand { return n.rng }

// Send implements Env: in-process channels are reliable and FIFO.
func (n *ClusterNode) Send(to NodeID, m Message) {
	dst := n.c.nodes[to]
	if dst == nil {
		return
	}
	from := n.id
	dst.enqueue(func() { dst.handler.Receive(from, m) })
}

// SendUDP implements Env. In-process transport does not lose messages; the
// datagram semantics (no backpressure guarantee) are preserved by dropping
// when the destination's inbox is full.
func (n *ClusterNode) SendUDP(to NodeID, m Message) {
	dst := n.c.nodes[to]
	if dst == nil {
		return
	}
	from := n.id
	select {
	case dst.inbox <- func() { dst.handler.Receive(from, m) }:
	default: // buffer full: datagram dropped
	}
}

// Multicast implements Env by fanning out to every subscriber.
func (n *ClusterNode) Multicast(g GroupID, m Message) {
	from := n.id
	for _, dst := range n.c.groups[g] {
		select {
		case dst.inbox <- func() { dst.handler.Receive(from, m) }:
		default:
		}
	}
}

// rtTimer adapts time.Timer to proto.Timer.
type rtTimer struct {
	t *time.Timer
}

// Cancel implements Timer.
func (t rtTimer) Cancel() { t.t.Stop() }

// After implements Env.
func (n *ClusterNode) After(d time.Duration, fn func()) Timer {
	t := time.AfterFunc(d, func() { n.enqueue(fn) })
	return rtTimer{t: t}
}

// AfterFree implements proto.FreeTimerEnv. The realtime runtime has no
// allocation-free scheduling path, so this is After without the handle.
func (n *ClusterNode) AfterFree(d time.Duration, fn func()) {
	time.AfterFunc(d, func() { n.enqueue(fn) })
}

// AfterFreeArg implements proto.FreeTimerEnv.
func (n *ClusterNode) AfterFreeArg(d time.Duration, fn func(int64), arg int64) {
	time.AfterFunc(d, func() { n.enqueue(func() { fn(arg) }) })
}

// Work implements Env: realtime has no modeled CPU, so fn runs after d of
// wall time (0 means immediately, still serialized through the loop).
func (n *ClusterNode) Work(d time.Duration, fn func()) {
	if d <= 0 {
		n.enqueue(fn)
		return
	}
	time.AfterFunc(d, func() { n.enqueue(fn) })
}

// EnableWAL backs every node's DiskWrite with a real synchronous file:
// each node appends its durable writes to dir/node-<id>.wal, opened with
// O_SYNC, so a protocol's write-ahead logging (ringpaxos.DurWAL) pays
// true fsync latency instead of completing instantly. The files carry
// the modeled byte volume, not a parseable record encoding — the logical
// records live in the protocol's wal.Log; the file is the timing and
// durability substrate. The directory is fixed at Start; a later call is
// an error. The first file error is remembered (WALError) and subsequent
// writes degrade to in-memory.
func (c *Cluster) EnableWAL(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("repro: Cluster.EnableWAL after Start")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c.walDir = dir
	return nil
}

// WALError returns the first write-ahead file error since EnableWAL, or
// nil. Writes after an error complete in-memory, so a full disk degrades
// durability, never liveness.
func (c *Cluster) WALError() error {
	if p := c.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *Cluster) noteWALErr(err error) {
	c.walErr.CompareAndSwap(nil, &err)
}

// walZeros is the shared source buffer for modeled durable writes.
var walZeros [4096]byte

// diskAppend appends size bytes to the node's WAL file, opening it on
// first use. Runs on the node's loop goroutine, so the synchronous write
// blocks the actor exactly like a real single-spindle commit would.
func (n *ClusterNode) diskAppend(size int) {
	if n.wal == nil {
		path := filepath.Join(n.c.walDir, fmt.Sprintf("node-%d.wal", n.id))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND|os.O_SYNC, 0o644)
		if err != nil {
			n.c.noteWALErr(err)
			return
		}
		n.wal = f
	}
	for size > 0 {
		chunk := size
		if chunk > len(walZeros) {
			chunk = len(walZeros)
		}
		if _, err := n.wal.Write(walZeros[:chunk]); err != nil {
			n.c.noteWALErr(err)
			return
		}
		size -= chunk
	}
}

// DiskWrite implements Env. The in-memory runtime completes immediately;
// with EnableWAL the bytes hit a real O_SYNC file first, on the node's
// own loop, before the completion runs.
func (n *ClusterNode) DiskWrite(size int, fn func()) {
	if n.c.walDir == "" || n.c.walErr.Load() != nil {
		n.enqueue(fn)
		return
	}
	n.enqueue(func() {
		n.diskAppend(size)
		fn()
	})
}
