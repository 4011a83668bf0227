package ringpaxos

// Edge-case coverage for the ring-indexed instance logs that replaced the
// per-instance maps: out-of-order learning, delivery-frontier trimming,
// garbage-collection trims, and retransmission requests for instances on
// either side of the trim horizon. The map-based implementation got these
// semantics implicitly; the rings must preserve them exactly.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// fakeEnv is a minimal proto.Env that records sends for direct protocol
// unit tests (no simulated network).
type fakeEnv struct {
	id    proto.NodeID
	now   time.Duration
	rng   *rand.Rand
	sends []fakeSend
}

type fakeSend struct {
	to proto.NodeID
	m  proto.Message
}

func (e *fakeEnv) ID() proto.NodeID                      { return e.id }
func (e *fakeEnv) Now() time.Duration                    { return e.now }
func (e *fakeEnv) Rand() *rand.Rand                      { return e.rng }
func (e *fakeEnv) Send(to proto.NodeID, m proto.Message) { e.sends = append(e.sends, fakeSend{to, m}) }
func (e *fakeEnv) SendUDP(to proto.NodeID, m proto.Message) {
	e.sends = append(e.sends, fakeSend{to, m})
}
func (e *fakeEnv) Multicast(g proto.GroupID, m proto.Message) {
	e.sends = append(e.sends, fakeSend{-1, m})
}
func (e *fakeEnv) After(d time.Duration, fn func()) proto.Timer { return fakeTimer{} }
func (e *fakeEnv) Work(d time.Duration, fn func())              { fn() }
func (e *fakeEnv) DiskWrite(size int, fn func())                { fn() }

type fakeTimer struct{}

func (fakeTimer) Cancel() {}

// newLearnerAgent returns an MAgent acting purely as learner 100, plus its
// delivery record.
func newLearnerAgent() (*MAgent, *[]core.ValueID) {
	a := &MAgent{Cfg: MConfig{
		Ring:     []proto.NodeID{0, 1},
		Learners: []proto.NodeID{100},
		Group:    1,
	}}
	var got []core.ValueID
	a.Deliver = func(_ int64, v core.Value) { got = append(got, v.ID) }
	a.Start(&fakeEnv{id: 100, rng: rand.New(rand.NewSource(1))})
	return a, &got
}

func batchOf(ids ...core.ValueID) core.Batch {
	b := core.Batch{}
	for _, id := range ids {
		b.Vals = append(b.Vals, core.Value{ID: id, Bytes: 64})
	}
	return b
}

// TestLearnerOutOfOrderValues feeds values and decisions in scrambled
// instance order, decisions sometimes before values, and checks in-order
// delivery plus frontier trimming.
func TestLearnerOutOfOrderValues(t *testing.T) {
	a, got := newLearnerAgent()
	// Values arrive 3, 0, 2, 1; decisions interleave arbitrarily.
	a.learnValue(3, 103, batchOf(33), 0)
	a.learnDecision(3, 0, 0) // decided before earlier instances even have values
	a.learnValue(0, 100, batchOf(30), 0)
	a.learnDecision(1, 0, 0) // decision before its value
	a.learnDecision(0, 0, 0)
	if want := int64(1); a.NextDeliver() != want {
		t.Fatalf("frontier %d after inst 0 decided, want %d", a.NextDeliver(), want)
	}
	a.learnValue(2, 102, batchOf(32), 0)
	a.learnValue(1, 101, batchOf(31), 0) // unblocks 1; 2 still undecided
	if want := int64(2); a.NextDeliver() != want {
		t.Fatalf("frontier %d, want %d", a.NextDeliver(), want)
	}
	a.learnDecision(2, 0, 0) // unblocks 2 and then 3
	if want := int64(4); a.NextDeliver() != want {
		t.Fatalf("frontier %d, want %d", a.NextDeliver(), want)
	}
	wantOrder := []core.ValueID{30, 31, 32, 33}
	if len(*got) != len(wantOrder) {
		t.Fatalf("delivered %v, want %v", *got, wantOrder)
	}
	for i, id := range wantOrder {
		if (*got)[i] != id {
			t.Fatalf("delivered %v, want %v", *got, wantOrder)
		}
	}
	// Delivered instances are trimmed: a duplicate value or decision for
	// them must neither redeliver nor resurrect state.
	a.learnValue(1, 101, batchOf(31), 0)
	a.learnDecision(1, 0, 0)
	if len(*got) != 4 || a.insts.Len() != 0 {
		t.Fatalf("trimmed instance resurrected: %v, %d live", *got, a.insts.Len())
	}
}

// TestLearnerValueOverwrite checks that a re-proposed value (same instance,
// new vid) replaces the buffered one, as the map implementation did.
func TestLearnerValueOverwrite(t *testing.T) {
	a, got := newLearnerAgent()
	a.learnValue(0, 100, batchOf(10), 0)
	a.learnValue(0, 200, batchOf(20), 0) // new coordinator re-proposed
	a.learnDecision(0, 0, 0)
	if len(*got) != 1 || (*got)[0] != 20 {
		t.Fatalf("delivered %v, want the re-proposed value 20", *got)
	}
}

// newAcceptorAgent returns an MAgent acting as ring acceptor 0 (the 2B
// originator) with its fake environment.
func newAcceptorAgent() (*MAgent, *fakeEnv) {
	env := &fakeEnv{id: 0, rng: rand.New(rand.NewSource(1))}
	a := &MAgent{Cfg: MConfig{
		Ring:     []proto.NodeID{0, 1},
		Learners: []proto.NodeID{100, 101},
		Group:    1,
	}}
	a.Start(env)
	return a, env
}

// TestAcceptorTrimAndRetransmit garbage-collects a prefix of the acceptor
// store via learner version reports, then asks for retransmissions across
// the trim horizon: trimmed instances are silently skipped, live ones are
// served.
func TestAcceptorTrimAndRetransmit(t *testing.T) {
	a, env := newAcceptorAgent()
	for inst := int64(0); inst < 8; inst++ {
		a.onPhase2A(&mPhase2A{Inst: inst, Rnd: 1 << 10, VID: core.ValueID(1000 + inst), Val: batchOf(core.ValueID(inst))})
	}
	if a.store.Len() != 8 || a.StoreBytes() == 0 {
		t.Fatalf("store %d entries, %d bytes", a.store.Len(), a.StoreBytes())
	}
	// Both learners report version 4: instances 0..4 trim.
	a.onVersion(&proto.VersionReport{From: 100, Inst: 4, Hops: 1})
	a.onVersion(&proto.VersionReport{From: 101, Inst: 4, Hops: 1})
	if a.store.Len() != 3 {
		t.Fatalf("store %d entries after GC, want 3", a.store.Len())
	}
	env.sends = nil
	a.onRetransmitReq(99, mRetransmitReq{Insts: []int64{2, 4, 5, 6, 7, 40}})
	var served []int64
	for _, s := range env.sends {
		served = append(served, s.m.(mRetransmit).Inst)
	}
	if len(served) != 3 || served[0] != 5 || served[1] != 6 || served[2] != 7 {
		t.Fatalf("retransmitted %v, want [5 6 7]", served)
	}
	// StoreBytes accounting survives the trim exactly: remaining entries
	// hold 3 batches of one 64-byte value.
	if a.StoreBytes() != 3*64 {
		t.Fatalf("StoreBytes = %d, want %d", a.StoreBytes(), 3*64)
	}
}

// TestAcceptorParked2BSurvivesRing checks the parked-2B path (2B ahead of
// its 2A) through the merged store entry: the 2B must resume when the
// matching 2A arrives, not before, and not for a stale vid.
func TestAcceptorParked2BSurvivesRing(t *testing.T) {
	env := &fakeEnv{id: 1, rng: rand.New(rand.NewSource(1))}
	a := &MAgent{Cfg: MConfig{
		Ring:     []proto.NodeID{0, 1, 2},
		Learners: []proto.NodeID{100},
		Group:    1,
	}}
	a.Start(env)
	// 2B arrives before the 2A: parked.
	p := phase2BPool.Get()
	p.Inst, p.Rnd, p.VID = 7, 1<<10, 1007
	a.onPhase2B(p)
	if len(env.sends) != 0 {
		t.Fatal("2B forwarded before the 2A arrived")
	}
	// A 2A with a DIFFERENT vid must not release it.
	a.onPhase2A(&mPhase2A{Inst: 7, Rnd: 1 << 10, VID: 9999, Val: batchOf(1)})
	if len(env.sends) != 0 {
		t.Fatal("parked 2B released by mismatched vid")
	}
	// The matching 2A releases it to the successor (node 2).
	a.onPhase2A(&mPhase2A{Inst: 7, Rnd: 1 << 10, VID: 1007, Val: batchOf(1)})
	var forwarded bool
	for _, s := range env.sends {
		if m, ok := s.m.(*mPhase2B); ok && s.to == 2 && m.Inst == 7 && m.VID == 1007 {
			forwarded = true
		}
	}
	if !forwarded {
		t.Fatalf("parked 2B not forwarded after matching 2A; sends: %v", env.sends)
	}
}
