package ringpaxos

// The U-Ring coordinator's flush rule (UAgent.enqueue): a value that finds
// the ready coordinator idle leaves at once with no timer; anything else is
// staged and leaves with a window release, at BatchBytes, or — the
// fallback — after BatchDelay. Every scenario runs a 3-process ring on a
// default lan with a BatchDelay (5 ms) far above the ring's round trip, so
// "before t0+BatchDelay" means "not by the timer".

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/wal"
)

const (
	flushDelay  = 5 * time.Millisecond
	flushSettle = 50 * time.Millisecond // Phase 1 done, its retry timer spent
)

type flushDeliv struct {
	inst int64
	id   core.ValueID
	at   time.Duration
}

type flushRig struct {
	l      *lan.LAN
	agents []*UAgent
	deliv  [3][]flushDeliv
}

// deployFlush wires three processes, all acceptors and learners, with GC
// off so the only timers left after Phase 1 are the ones under test.
func deployFlush(dur Durability, sched *fault.Schedule) *flushRig {
	r := &flushRig{l: lan.New(lan.DefaultConfig(), 1)}
	ring := []proto.NodeID{0, 1, 2}
	cfg := UConfig{Ring: ring, Learners: ring, BatchDelay: flushDelay, GCInterval: -1, Durability: dur}
	for _, id := range ring {
		a := &UAgent{Cfg: cfg}
		if dur == DurWAL {
			a.Log = &wal.Log{}
		}
		env := r.l.AddNode(id, a)
		a.Deliver = func(inst int64, v core.Value) {
			r.deliv[id] = append(r.deliv[id], flushDeliv{inst, v.ID, env.Now()})
		}
		r.agents = append(r.agents, a)
	}
	r.l.InstallFaults(sched)
	r.l.Start()
	return r
}

func (r *flushRig) propose(ids ...core.ValueID) {
	for _, id := range ids {
		r.agents[0].Propose(core.Value{ID: id, Bytes: 512})
	}
}

// delivered returns the instance every learner delivered id in, failing
// unless all three did, in the same instance, before deadline.
func (r *flushRig) delivered(t *testing.T, id core.ValueID, deadline time.Duration) int64 {
	t.Helper()
	inst := int64(-1)
	for node, seq := range r.deliv {
		found := false
		for _, d := range seq {
			if d.id != id {
				continue
			}
			if found {
				t.Fatalf("node %d delivered value %d twice", node, id)
			}
			found = true
			if d.at >= deadline {
				t.Fatalf("node %d delivered value %d at %v, want before %v", node, id, d.at, deadline)
			}
			if inst >= 0 && d.inst != inst {
				t.Fatalf("value %d delivered in instance %d at node %d, %d elsewhere", id, d.inst, node, inst)
			}
			inst = d.inst
		}
		if !found {
			t.Fatalf("node %d never delivered value %d", node, id)
		}
	}
	return inst
}

// instSizes returns how many values node 0 delivered per instance.
func (r *flushRig) instSizes() []int {
	var sizes []int
	for _, d := range r.deliv[0] {
		for int(d.inst) >= len(sizes) {
			sizes = append(sizes, 0)
		}
		sizes[d.inst]++
	}
	return sizes
}

func TestURingFlushRule(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"idle value leaves at once, no timer", func(t *testing.T) {
			r := deployFlush(DurModeled, nil)
			r.l.Run(flushSettle)
			if n := r.l.Sim.Pending(); n != 0 {
				t.Fatalf("%d events pending on a settled idle ring", n)
			}
			t0 := r.l.Sim.Now()
			r.propose(1)
			if n := r.agents[0].batch.Len(); n != 0 {
				t.Fatalf("%d values still staged behind an idle coordinator", n)
			}
			r.l.Run(flushDelay / 2)
			if inst := r.delivered(t, 1, t0+flushDelay/2); inst != 0 {
				t.Fatalf("delivered in instance %d, want 0", inst)
			}
			if got := r.agents[0].next; got != 1 {
				t.Fatalf("coordinator opened %d instances for one value", got)
			}
			// A flush timer armed at t0 would still be pending here.
			if n := r.l.Sim.Pending(); n != 0 {
				t.Fatalf("%d events pending after the commit: a flush timer was armed for an idle coordinator", n)
			}
		}},
		{"value behind an open instance leaves with its window release", func(t *testing.T) {
			r := deployFlush(DurModeled, nil)
			r.l.Run(flushSettle)
			t0 := r.l.Sim.Now()
			r.propose(1)
			r.l.Run(20 * time.Microsecond) // instance 0 is on the ring
			r.propose(2)
			if a := r.agents[0]; a.openCount != 1 || a.batch.Len() != 1 {
				t.Fatalf("open=%d staged=%d, want value 2 staged behind one open instance", a.openCount, a.batch.Len())
			}
			r.l.Run(flushDelay / 2)
			if i1, i2 := r.delivered(t, 1, t0+flushDelay/2), r.delivered(t, 2, t0+flushDelay/2); i1 != 0 || i2 != 1 {
				t.Fatalf("values delivered in instances %d and %d, want 0 and 1", i1, i2)
			}
		}},
		{"same-instant burst: one single-value instance, then batches", func(t *testing.T) {
			const n = 200 // 100 KB of 512 B values against 32 KB packets
			r := deployFlush(DurModeled, nil)
			r.l.Run(flushSettle)
			t0 := r.l.Sim.Now()
			for i := 1; i <= n; i++ {
				r.propose(core.ValueID(i))
			}
			r.l.Run(flushDelay / 2)
			r.delivered(t, n, t0+flushDelay/2)
			sizes := r.instSizes()
			if len(sizes) < 2 || sizes[0] != 1 {
				t.Fatalf("instance sizes %v, want a single-value instance first", sizes)
			}
			total := 0
			for i, s := range sizes {
				total += s
				if i > 0 && s < 2 {
					t.Fatalf("instance sizes %v: instance %d behind an open one was not batched", sizes, i)
				}
			}
			if total != n || len(sizes) > 1+(n*512)/(32<<10)+1 {
				t.Fatalf("instance sizes %v: want %d values in at most %d instances", sizes, n, 2+(n*512)/(32<<10))
			}
		}},
		{"value before Phase 1 completes leaves from onPhase1B", func(t *testing.T) {
			r := deployFlush(DurModeled, nil)
			r.propose(1) // Start ran, no promise is back yet
			if a := r.agents[0]; a.phase1Done || a.batch.Len() != 1 {
				t.Fatalf("phase1Done=%v staged=%d, want the value staged before Phase 1 ends", a.phase1Done, a.batch.Len())
			}
			r.l.Run(flushDelay / 2)
			r.delivered(t, 1, flushDelay/2)
		}},
		{"rule holds again after LoseVolatile and a new Phase 1", func(t *testing.T) {
			// The coordinator dies with instances open, replays its log and
			// resumes; loseState reset the window count the rule reads.
			crash := flushSettle + 40*time.Microsecond
			sched := fault.New(1).CrashFor(crash, 10*time.Millisecond, 0, fault.Lose)
			r := deployFlush(DurWAL, sched)
			r.l.Run(flushSettle)
			r.propose(1)
			r.l.Run(20 * time.Microsecond)
			r.propose(2, 3)
			r.l.Run(10 * time.Microsecond)
			if a := r.agents[0]; a.openCount == 0 {
				t.Fatal("no instance open at the crash: the scenario lost its point")
			}
			r.l.Run(flushSettle)
			if a := r.agents[0]; !a.IsCoordinator() || a.openCount != 0 {
				t.Fatalf("after replay: coordinator=%v open=%d, want a ready idle coordinator", a.IsCoordinator(), a.openCount)
			}
			t0 := r.l.Sim.Now()
			r.propose(9)
			r.l.Run(flushDelay / 2)
			r.delivered(t, 9, t0+flushDelay/2)
		}},
		{"rule holds again after standDown and re-election", func(t *testing.T) {
			r := deployFlush(DurModeled, nil)
			r.l.Run(flushSettle)
			a := r.agents[0]
			r.propose(1)
			r.propose(2) // staged behind instance 0
			a.standDown()
			if a.openCount != 0 || a.batch.Len() != 0 {
				t.Fatalf("after standDown: open=%d staged=%d, want 0 and 0", a.openCount, a.batch.Len())
			}
			a.takeOver(a.ring, a.nacc)
			r.l.Run(flushSettle)
			if !a.IsCoordinator() || a.openCount != 0 {
				t.Fatalf("after re-election: coordinator=%v open=%d", a.IsCoordinator(), a.openCount)
			}
			t0 := r.l.Sim.Now()
			r.propose(9)
			r.l.Run(flushDelay / 2)
			r.delivered(t, 9, t0+flushDelay/2)
		}},
		{"drifted open count falls back to BatchDelay, never stalls", func(t *testing.T) {
			r := deployFlush(DurModeled, nil)
			r.l.Run(flushSettle)
			r.agents[0].openCount = 1 // a decision lost at a failover
			t0 := r.l.Sim.Now()
			r.propose(1)
			r.l.Run(flushDelay / 2)
			if n := len(r.deliv[0]); n != 0 {
				t.Fatalf("%d deliveries before BatchDelay: the value did not wait behind the phantom instance", n)
			}
			r.l.Run(flushDelay)
			r.delivered(t, 1, t0+flushDelay+flushDelay/2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
