package repro

import (
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingHandler counts the messages it receives — and those that
// overtook its Start — and runs an optional hook on its own loop once
// started.
type countingHandler struct {
	got, early atomic.Int64
	started    bool // loop-local
	onStart    func(env Env)
}

func (h *countingHandler) Start(env Env) {
	h.started = true
	if h.onStart != nil {
		h.onStart(env)
	}
}

func (h *countingHandler) Receive(NodeID, Message) {
	if !h.started {
		h.early.Add(1)
	}
	h.got.Add(1)
}

type testMsg int

func (testMsg) Size() int { return 8 }

// TestClusterMembershipFrozenAtStart pins the contract the lock-free
// message paths rest on: once the loops run, nothing may add a node (it
// would have no loop and wedge its senders), change a group or start the
// loops a second time.
func TestClusterMembershipFrozenAtStart(t *testing.T) {
	late := map[string]func(c *Cluster){
		"AddNode":   func(c *Cluster) { c.AddNode(2, &countingHandler{}) },
		"Subscribe": func(c *Cluster) { c.Subscribe(7, 1) },
		"Start":     func(c *Cluster) { c.Start() },
	}
	for op, call := range late {
		t.Run(op, func(t *testing.T) {
			c := NewCluster(1)
			c.AddNode(1, &countingHandler{})
			c.Start()
			defer c.Stop()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Cluster."+op+" after Start") {
					t.Fatalf("late %s: recovered %q, want a panic naming the call", op, msg)
				}
			}()
			call(c)
		})
	}
	t.Run("EnableWAL", func(t *testing.T) {
		c := NewCluster(1)
		c.Start()
		defer c.Stop()
		if err := c.EnableWAL(t.TempDir()); err == nil {
			t.Fatal("EnableWAL after Start succeeded: the directory must be fixed at Start")
		}
	})
}

// TestClusterMulticastReachesEverySubscriberOnce sends a burst of
// multicasts from a member of the group and checks the fan-out list built
// at Start: every subscriber — the sender included, one subscribed twice,
// one subscribed before it was added — gets each message exactly once, a
// non-subscriber and a subscribed-but-never-added id get nothing. The
// sender multicasts from its Start, so the burst races the other nodes'
// Starts: none may see a message first.
func TestClusterMulticastReachesEverySubscriberOnce(t *testing.T) {
	const g, other, n = GroupID(7), GroupID(8), 200
	c := NewCluster(3)
	hs := map[NodeID]*countingHandler{}
	c.Subscribe(g, 4) // before AddNode
	for id := NodeID(1); id <= 5; id++ {
		hs[id] = &countingHandler{}
		c.AddNode(id, hs[id])
	}
	for _, id := range []NodeID{1, 2, 3, 3} {
		c.Subscribe(g, id)
	}
	c.Subscribe(g, 99) // never added
	c.Subscribe(other, 5)
	hs[1].onStart = func(env Env) {
		for i := 0; i < n; i++ {
			env.Multicast(g, testMsg(i))
		}
	}
	c.Start()
	want := map[NodeID]int64{1: n, 2: n, 3: n, 4: n, 5: 0}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for id, w := range want {
			done = done && hs[id].got.Load() >= w
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a duplicate would trail the first copy
	c.Stop()
	for id, w := range want {
		if got := hs[id].got.Load(); got != w {
			t.Errorf("node %d received %d multicasts, want %d", id, got, w)
		}
		if early := hs[id].early.Load(); early != 0 {
			t.Errorf("node %d received %d multicasts before its Start", id, early)
		}
	}
}

// TestRealtimeLogIdleCommitBeatsBatchDelay is the realtime face of the
// self-clocked coordinator: with the default LogConfig and one proposal
// outstanding at a time every value finds the coordinator idle, so it
// commits in ring-hop time. Before, each one waited out the 500 µs flush
// timer by construction, which makes the median a sharp bound that does not
// depend on how fast the host is.
func TestRealtimeLogIdleCommitBeatsBatchDelay(t *testing.T) {
	const commits = 500
	const defaultBatchDelay = 500 * time.Microsecond
	c := NewCluster(5)
	done := make(chan time.Time, 1)
	log := NewReplicatedLog(c, LogConfig{
		Nodes: []NodeID{1, 2, 3},
		Deliver: func(node NodeID, _ int64, _ Value) {
			if node == 3 {
				done <- time.Now()
			}
		},
	})
	c.Start()
	defer c.Stop()
	lat := make([]time.Duration, 0, commits)
	for i := 1; i <= commits; i++ {
		sent := time.Now()
		log.Propose(1, Value{ID: ValueID(i), Bytes: 1024})
		select {
		case at := <-done:
			lat = append(lat, at.Sub(sent))
		case <-time.After(5 * time.Second):
			t.Fatalf("commit %d never reached node 3", i)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50 := lat[commits/2]; p50 >= defaultBatchDelay {
		t.Fatalf("median propose-to-deliver time %v is not below the %v default BatchDelay: idle commits are waiting for the flush timer", p50, defaultBatchDelay)
	}
}
