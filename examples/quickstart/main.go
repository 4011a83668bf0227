// Command quickstart embeds a replicated, totally ordered log in an
// application using the public API: three in-process U-Ring Paxos nodes
// each maintain a key-value map, apply commands in the agreed order, and
// end up byte-identical — the state-machine replication contract.
package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// putCmd is the application command carried opaquely through the log.
type putCmd struct {
	Key, Val string
}

func main() {
	cluster := repro.NewCluster(1)

	// Each node applies delivered commands to its own map.
	var mu sync.Mutex
	states := map[repro.NodeID]map[string]string{
		1: {}, 2: {}, 3: {},
	}
	applied := map[repro.NodeID]int{}

	log := repro.NewReplicatedLog(cluster, repro.LogConfig{
		Nodes: []repro.NodeID{1, 2, 3},
		Deliver: func(node repro.NodeID, _ int64, v repro.Value) {
			cmd := v.Payload.(putCmd)
			mu.Lock()
			states[node][cmd.Key] = cmd.Val
			applied[node]++
			mu.Unlock()
		},
	})
	cluster.Start()
	defer cluster.Stop()

	// Propose interleaved writes from different nodes; the log decides one
	// total order, so "last writer" is the same everywhere.
	cmds := []struct {
		from repro.NodeID
		cmd  putCmd
	}{
		{1, putCmd{"color", "red"}},
		{2, putCmd{"color", "green"}},
		{3, putCmd{"shape", "circle"}},
		{1, putCmd{"shape", "square"}},
		{2, putCmd{"size", "large"}},
		{3, putCmd{"color", "blue"}},
	}
	for i, c := range cmds {
		log.Propose(c.from, repro.Value{
			ID:      repro.ValueID(i + 1),
			Bytes:   64,
			Payload: c.cmd,
		})
	}

	// Wait until every node applied every command.
	for {
		mu.Lock()
		done := applied[1] == len(cmds) && applied[2] == len(cmds) && applied[3] == len(cmds)
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, node := range []repro.NodeID{1, 2, 3} {
		var keys []string
		for k := range states[node] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%s", k, states[node][k]))
		}
		fmt.Printf("node %d: %s\n", node, strings.Join(parts, " "))
	}
	if fmt.Sprint(states[1]) == fmt.Sprint(states[2]) && fmt.Sprint(states[2]) == fmt.Sprint(states[3]) {
		fmt.Println("all replicas converged ✓")
	} else {
		fmt.Println("DIVERGENCE — this should never happen")
	}
}
