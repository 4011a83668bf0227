package lan

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/proto"
)

// pdesTrace runs a two-node TCP ping-pong plus a multicast fan-out, with the
// cluster optionally partitioned, and returns each node's delivery trace.
// Traces are per node — a node's deliveries happen on its own LP, so each
// slice has a single writer — and each is deterministic in both modes.
// Nodes 1 and 2 volley over a reliable channel; node 3 multicasts to a group
// spanning both partitions every 200µs.
func pdesTrace(nLP int) map[proto.NodeID][]string {
	l := New(DefaultConfig(), 1)
	got := make(map[proto.NodeID]*[]string)
	envs := make(map[proto.NodeID]proto.Env)
	mk := func(id proto.NodeID, onStart func(proto.Env), onRecv func(proto.Env, proto.NodeID, proto.Message)) {
		lines := &[]string{}
		got[id] = lines
		h := &proto.HandlerFunc{}
		h.OnStart = func(env proto.Env) {
			envs[id] = env
			if onStart != nil {
				onStart(env)
			}
		}
		h.OnReceive = func(from proto.NodeID, m proto.Message) {
			*lines = append(*lines, fmt.Sprintf("got %d from n%d at %v",
				m.(proto.Raw).Tag, from, envs[id].Now()))
			if onRecv != nil {
				onRecv(envs[id], from, m)
			}
		}
		l.AddNode(id, h)
	}
	mk(1, func(env proto.Env) { env.Send(2, proto.Raw{Bytes: 100, Tag: 0}) },
		func(env proto.Env, _ proto.NodeID, m proto.Message) {
			if r := m.(proto.Raw); r.Tag < 20 {
				env.Send(2, proto.Raw{Bytes: 100, Tag: r.Tag + 1})
			}
		})
	mk(2, nil, func(env proto.Env, from proto.NodeID, m proto.Message) {
		env.Send(from, m)
	})
	mk(3, func(env proto.Env) {
		var tick func()
		tag := int64(100)
		tick = func() {
			env.Multicast(7, proto.Raw{Bytes: 300, Tag: tag})
			tag++
			if tag < 110 {
				env.After(200*time.Microsecond, tick)
			}
		}
		env.After(50*time.Microsecond, tick)
	}, nil)
	mk(4, nil, nil)
	for _, id := range []proto.NodeID{1, 2, 4} {
		l.Subscribe(7, id)
	}
	if nLP > 0 {
		if !l.Partition(nLP, func(id proto.NodeID) int { return int(id) % nLP }) {
			panic("partition declined")
		}
	}
	l.Start()
	// Two Run calls: traffic queued across the deadline must stay queued,
	// exactly like the sequential run.
	l.Run(2 * time.Millisecond)
	l.Run(3 * time.Millisecond)
	out := make(map[proto.NodeID][]string, len(got))
	for id, lines := range got {
		out[id] = *lines
	}
	return out
}

// TestPartitionEquivalence requires the partitioned cluster to produce
// byte-identical per-node delivery traces to the sequential one, for several
// LP counts, across both the reliable-channel and multicast paths.
func TestPartitionEquivalence(t *testing.T) {
	want := pdesTrace(0)
	total := 0
	for _, lines := range want {
		total += len(lines)
	}
	if total == 0 {
		t.Fatal("sequential run delivered nothing")
	}
	for _, nLP := range []int{2, 3, 4} {
		gotAll := pdesTrace(nLP)
		for id, w := range want {
			g := gotAll[id]
			if len(g) != len(w) {
				t.Fatalf("nLP=%d node %d: %d deliveries, sequential had %d", nLP, id, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("nLP=%d node %d diverges at %d: got %q, want %q", nLP, id, i, g[i], w[i])
				}
			}
		}
	}
}

// TestPartitionDeclines pins the refusal cases: partitioning must decline —
// and the cluster run sequentially, not corrupt itself — when there is no
// lookahead (Latency <= 0) or when fewer than two LPs are requested.
// Lossy configurations are accepted: LossRate draws from per-node RNG
// streams, so parallel runs replay them exactly.
func TestPartitionDeclines(t *testing.T) {
	mk := func(mut func(*Config)) *LAN {
		cfg := DefaultConfig()
		if mut != nil {
			mut(&cfg)
		}
		l := New(cfg, 1)
		l.AddNode(1, &proto.HandlerFunc{})
		return l
	}
	if mk(func(c *Config) { c.Latency = 0 }).Partition(4, nil) {
		t.Error("Partition accepted Latency=0 (zero lookahead)")
	}
	if !mk(func(c *Config) { c.LossRate = 0.1 }).Partition(4, nil) {
		t.Error("Partition declined LossRate>0 (loss draws are per-node now)")
	}
	if mk(nil).Partition(1, nil) {
		t.Error("Partition accepted nLP=1")
	}
	if l := mk(nil); !l.Partition(2, nil) {
		t.Error("Partition declined a valid configuration")
	} else if l.Partitions() != 2 {
		t.Errorf("Partitions() = %d, want 2", l.Partitions())
	}
}
