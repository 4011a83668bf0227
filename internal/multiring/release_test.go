package multiring

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
)

// skipUnderRace skips an allocation guard in a race-detector build: there
// sync.Pool drops a share of what is put back, so pooled messages would
// count as allocations.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops puts under the race detector")
			}
		}
	}
}

// TestRingEnvDuplicatedDatagramIntact sends one datagram through a ringEnv
// on a network that duplicates every datagram: both copies must arrive
// with the envelope the sender filled. A datagram envelope is never armed,
// so the first copy's release cannot recycle it under the second.
func TestRingEnvDuplicatedDatagramIntact(t *testing.T) {
	type arrival struct {
		ring  int
		inner proto.Message
	}
	l := lan.New(lan.DefaultConfig(), 1)
	var env proto.Env
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) { env = e }})
	node := NewNode()
	var got []arrival
	l.AddNode(1, &proto.HandlerFunc{OnReceive: func(from proto.NodeID, m proto.Message) {
		if rm, ok := m.(*RingMsg); ok {
			got = append(got, arrival{rm.Ring, rm.Inner})
		}
		node.Receive(from, m)
	}})
	l.InstallFaults(fault.New(1).WithNet(fault.Net{DupRate: 1}))
	l.Start()
	ringEnv{Env: env, ring: 3}.SendUDP(1, proto.Raw{Bytes: 100, Tag: 7})
	l.Run(10 * time.Millisecond)
	want := arrival{3, proto.Raw{Bytes: 100, Tag: 7}}
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Fatalf("arrivals %+v, want two copies of %+v", got, want)
	}
}

// TestNodeOneValuePerInstanceAllocBudget drives both rings of the
// two-ring rig with values as large as a batch, so every value opens its
// own instance on its ring and travels in its own multicast envelope to
// the merging learner. Envelopes and the M-Ring messages inside them are
// recycled by their last receiver; what remains is the batch array each
// instance allocates, which a Multi-Ring deployment cannot recycle (its
// merger may hold a batch past the garbage-collection horizon, see
// MConfig.RecycleBatches).
func TestNodeOneValuePerInstanceAllocBudget(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := newRig(1, 0, 0, 1, nil)
	merged := 0
	r.m10.Deliver = func(int64, core.Value) { merged++ }
	r.m11.Deliver = nil
	r.l.Run(50 * time.Millisecond) // Phase 1 + timer warm-up
	const size = 8 << 10           // the default BatchBytes
	id := int64(0)
	run := func(n int) {
		want := merged + 2*n
		for i := 0; i < n; i++ {
			id++
			r.nodes[1].Agent(0).Propose(core.Value{ID: core.ValueID(2 * id), Bytes: size})
			r.nodes[3].Agent(1).Propose(core.Value{ID: core.ValueID(2*id + 1), Bytes: size})
		}
		for merged < want {
			r.l.Run(time.Millisecond)
		}
	}
	const n = 2048
	run(n) // warm pools, logs and staging
	avg := testing.AllocsPerRun(1, func() { run(n) }) / (2 * n)
	if avg > 1.05 {
		t.Fatalf("one-value instances allocate %.3f objects/value, want ≤ 1.05 (the batch array)", avg)
	}
	t.Logf("Multi-Ring one value per instance: %.3f allocs/value", avg)
}
