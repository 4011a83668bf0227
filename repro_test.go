package repro

import (
	"sync"
	"testing"
	"time"
)

// TestRealtimeReplicatedLog runs U-Ring Paxos on the realtime runtime:
// three in-process nodes must deliver the same totally ordered sequence.
func TestRealtimeReplicatedLog(t *testing.T) {
	c := NewCluster(1)
	var mu sync.Mutex
	deliv := map[NodeID][]ValueID{}
	log := NewReplicatedLog(c, LogConfig{
		Nodes: []NodeID{1, 2, 3},
		Deliver: func(node NodeID, _ int64, v Value) {
			mu.Lock()
			deliv[node] = append(deliv[node], v.ID)
			mu.Unlock()
		},
	})
	c.Start()
	defer c.Stop()

	const n = 60
	for i := 0; i < n; i++ {
		log.Propose(NodeID(i%3+1), Value{ID: ValueID(i + 1), Bytes: 64})
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		done := len(deliv[1]) == n && len(deliv[2]) == n && len(deliv[3]) == n
		mu.Unlock()
		if done {
			break
		}
		select {
		case <-deadline:
			mu.Lock()
			t.Fatalf("timeout: delivered %d/%d/%d of %d",
				len(deliv[1]), len(deliv[2]), len(deliv[3]), n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if deliv[1][i] != deliv[2][i] || deliv[2][i] != deliv[3][i] {
			t.Fatalf("order diverges at %d: %d/%d/%d", i, deliv[1][i], deliv[2][i], deliv[3][i])
		}
	}
}

// TestRealtimeMRing runs M-Ring Paxos on the realtime runtime with fan-out
// multicast.
func TestRealtimeMRing(t *testing.T) {
	c := NewCluster(2)
	cfg := MRingConfig{
		Ring:     []NodeID{1, 2},
		Learners: []NodeID{10, 11},
		Group:    7,
	}
	var mu sync.Mutex
	deliv := map[NodeID][]ValueID{}
	agents := map[NodeID]*MRingAgent{}
	for _, id := range []NodeID{1, 2, 10, 11} {
		id := id
		a := &MRingAgent{Cfg: cfg}
		a.Deliver = func(_ int64, v Value) {
			mu.Lock()
			deliv[id] = append(deliv[id], v.ID)
			mu.Unlock()
		}
		agents[id] = a
		c.AddNode(id, a)
		c.Subscribe(7, id)
	}
	prop := &MRingAgent{Cfg: cfg}
	pn := c.AddNode(100, prop)
	c.Start()
	defer c.Stop()

	const n = 40
	for i := 0; i < n; i++ {
		v := Value{ID: ValueID(i + 1), Bytes: 64}
		pn.enqueue(func() { prop.Propose(v) })
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		done := len(deliv[10]) == n && len(deliv[11]) == n
		mu.Unlock()
		if done {
			break
		}
		select {
		case <-deadline:
			mu.Lock()
			t.Fatalf("timeout: %d/%d of %d", len(deliv[10]), len(deliv[11]), n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if deliv[10][i] != deliv[11][i] {
			t.Fatalf("learner order diverges at %d", i)
		}
	}
}

// TestFacadeSimDeploy smoke-tests the exported simulator API end to end.
func TestFacadeSimDeploy(t *testing.T) {
	d := DeploySMR(SMRDeployConfig{
		Clients:          2,
		Replicas:         2,
		KeysPerPartition: 10_000,
		Workload: func(int) SMRWorkload {
			return SMRQueryWorkload{KeySpace: 10_000, Span: 100}
		},
	}, DefaultSimConfig(), 1)
	tput, lat := d.Measure(100*time.Millisecond, 500*time.Millisecond)
	if tput == 0 || lat == 0 {
		t.Fatalf("facade deployment produced no traffic: %f %v", tput, lat)
	}
}
