package ringpaxos

// Allocation guards and microbenchmarks for the batched hot path. The
// guards pin the allocation-free property this package advertises: once
// slabs, rings and pools are warm, staging a value into an open batch
// performs zero heap allocations, and a full propose→deliver cycle stays
// within a small per-value budget (batch arrays and wire boxing amortized
// over the batch).

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/proto"
)

// benchM wires an M-Ring deployment (acceptors 0..nRing-1, learners
// 100..) with counting-only delivery at learner 100, warmed past Phase 1
// and first flushes.
func benchM(batchBytes, nRing, nLearn int) (*lan.LAN, *MAgent, *int) {
	cfg := MConfig{Group: 1, BatchBytes: batchBytes, RecycleBatches: true}
	for i := 0; i < nRing; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
	}
	for i := 0; i < nLearn; i++ {
		cfg.Learners = append(cfg.Learners, proto.NodeID(100+i))
	}
	l := lan.New(lan.DefaultConfig(), 1)
	delivered := new(int)
	for _, id := range append(append([]proto.NodeID{}, cfg.Ring...), cfg.Learners...) {
		a := &MAgent{Cfg: cfg}
		if id == 100 {
			a.Deliver = func(int64, core.Value) { *delivered++ }
		}
		l.AddNode(id, a)
		l.Subscribe(1, id)
	}
	l.Start()
	l.Run(50 * time.Millisecond) // Phase 1 + timer warm-up
	coord := l.Node(cfg.Coordinator()).Handler().(*MAgent)
	return l, coord, delivered
}

// benchU wires a 3-process U-Ring, all acceptors and learners.
func benchU(batchBytes int) (*lan.LAN, *UAgent, *int) {
	cfg := UConfig{
		Ring:       []proto.NodeID{0, 1, 2},
		Learners:   []proto.NodeID{0, 1, 2},
		BatchBytes: batchBytes,
	}
	l := lan.New(lan.DefaultConfig(), 1)
	delivered := new(int)
	agents := make([]*UAgent, 3)
	for i := range agents {
		agents[i] = &UAgent{Cfg: cfg}
		l.AddNode(proto.NodeID(i), agents[i])
	}
	agents[2].Deliver = func(int64, core.Value) { *delivered++ }
	l.Start()
	l.Run(50 * time.Millisecond)
	return l, agents[0], delivered
}

// runSteadyState drives n values through propose→deliver and returns once
// the probe learner has them all.
func runSteadyState(l *lan.LAN, propose func(core.Value), delivered *int, n, size int, id0 int64) {
	want := *delivered + n
	for i := 0; i < n; i++ {
		propose(core.Value{ID: core.ValueID(id0 + int64(i)), Bytes: size})
	}
	for *delivered < want {
		l.Run(time.Millisecond)
	}
}

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

// TestMRingBatchStagingAllocFree pins the per-value staging path — the
// coordinator accepting a value into an open batch — at exactly zero
// allocations per value once warm.
func TestMRingBatchStagingAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Huge batch limit: values accumulate in the slab without flushing, so
	// the measurement isolates the staging path.
	l, coord, delivered := benchM(1<<20, 2, 1)
	runSteadyState(l, coord.Propose, delivered, 4096, 128, 1<<20) // warm slab + pools
	id := int64(1 << 30)
	avg := testing.AllocsPerRun(4096, func() {
		id++
		coord.Propose(core.Value{ID: core.ValueID(id), Bytes: 16})
	})
	if avg != 0 {
		t.Fatalf("batched staging path allocates %.2f objects/value, want 0", avg)
	}
}

// TestURingBatchStagingAllocFree is the U-Ring counterpart.
func TestURingBatchStagingAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l, coord, delivered := benchU(1 << 20)
	runSteadyState(l, coord.Propose, delivered, 4096, 128, 1<<20)
	id := int64(1 << 30)
	avg := testing.AllocsPerRun(4096, func() {
		id++
		coord.Propose(core.Value{ID: core.ValueID(id), Bytes: 16})
	})
	if avg != 0 {
		t.Fatalf("batched staging path allocates %.2f objects/value, want 0", avg)
	}
}

// TestMRingSteadyStateAllocBudget bounds the full propose→deliver cycle:
// per value, end to end, across coordinator, acceptors and learner, with
// ~60-value batches; before the slab/ring/pool rework this path cost ~10
// objects per value. The one-value-per-instance guard below pins the
// per-instance messages.
func TestMRingSteadyStateAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l, coord, delivered := benchM(8<<10, 2, 1)
	runSteadyState(l, coord.Propose, delivered, 8192, 128, 1<<20) // warm everything
	const n = 8192
	avg := testing.AllocsPerRun(1, func() {
		runSteadyState(l, coord.Propose, delivered, n, 128, 1<<30)
	}) / n
	if avg > 1.0 {
		t.Fatalf("steady-state propose→deliver allocates %.2f objects/value, want ≤ 1.0", avg)
	}
	t.Logf("steady-state M-Ring propose→deliver: %.3f allocs/value", avg)
}

// TestMRingOneValuePerInstanceAllocFree is the sim-abcast shape: a ring of
// 3 acceptors, 4 learners, and values as large as a batch, so every value
// opens its own instance and costs one Phase 2A multicast, its share of the
// decision flushes and version reports, and its Phase 2B hops. Each of
// those messages is recycled by its last receiver, so once warm the cycle
// allocates nothing per value.
func TestMRingOneValuePerInstanceAllocFree(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const size = 1 << 10
	l, coord, delivered := benchM(size, 3, 4)
	runSteadyState(l, coord.Propose, delivered, 8192, size, 1<<20) // warm everything
	const n = 8192
	avg := testing.AllocsPerRun(1, func() {
		runSteadyState(l, coord.Propose, delivered, n, size, 1<<30)
	}) / n
	if avg > 0.01 {
		t.Fatalf("one value per instance allocates %.3f objects/value, want ≤ 0.01", avg)
	}
	t.Logf("M-Ring one value per instance: %.4f allocs/value", avg)
}

// TestURingSteadyStateAllocBudget is the U-Ring counterpart.
func TestURingSteadyStateAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l, coord, delivered := benchU(32 << 10)
	runSteadyState(l, coord.Propose, delivered, 8192, 128, 1<<20)
	const n = 8192
	avg := testing.AllocsPerRun(1, func() {
		runSteadyState(l, coord.Propose, delivered, n, 128, 1<<30)
	}) / n
	if avg > 1.0 {
		t.Fatalf("steady-state propose→deliver allocates %.2f objects/value, want ≤ 1.0", avg)
	}
	t.Logf("steady-state U-Ring propose→deliver: %.3f allocs/value", avg)
}

// BenchmarkMRingProposeDeliver measures the full ordered-delivery cycle of
// M-Ring Paxos on the simulated cluster, per value.
func BenchmarkMRingProposeDeliver(b *testing.B) {
	l, coord, delivered := benchM(8<<10, 2, 1)
	runSteadyState(l, coord.Propose, delivered, 4096, 128, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	runSteadyState(l, coord.Propose, delivered, b.N, 128, 1<<30)
}

// BenchmarkURingProposeDeliver is the U-Ring counterpart.
func BenchmarkURingProposeDeliver(b *testing.B) {
	l, coord, delivered := benchU(32 << 10)
	runSteadyState(l, coord.Propose, delivered, 4096, 128, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	runSteadyState(l, coord.Propose, delivered, b.N, 128, 1<<30)
}
