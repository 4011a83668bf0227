package ringpaxos

import (
	"testing"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
)

// TestGCIntervalDefaultsOn pins the on-by-default contract for both Ring
// Paxos variants: a zero-value config resolves to the nonzero default
// interval, and only the explicit negative opts out.
func TestGCIntervalDefaultsOn(t *testing.T) {
	var mc MConfig
	mc.defaults()
	if mc.GCInterval != DefaultGCInterval {
		t.Errorf("zero MConfig.GCInterval resolved to %v, want %v", mc.GCInterval, DefaultGCInterval)
	}
	mc = MConfig{GCInterval: -1}
	mc.defaults()
	if mc.GCInterval != 0 {
		t.Errorf("negative MConfig.GCInterval resolved to %v, want 0 (off)", mc.GCInterval)
	}

	var uc UConfig
	uc.defaults()
	if uc.GCInterval != DefaultGCInterval {
		t.Errorf("zero UConfig.GCInterval resolved to %v, want %v", uc.GCInterval, DefaultGCInterval)
	}
	uc = UConfig{GCInterval: -time.Second}
	uc.defaults()
	if uc.GCInterval != 0 {
		t.Errorf("negative UConfig.GCInterval resolved to %v, want 0 (off)", uc.GCInterval)
	}
}

// versionCounter counts proto.VersionReport receipts at the node it
// wraps (both fresh reports and ring-circulated copies).
type versionCounter struct{ n *int64 }

func (versionCounter) Start(proto.Env) {}
func (c versionCounter) Receive(_ proto.NodeID, m proto.Message) {
	if _, ok := m.(*proto.VersionReport); ok {
		*c.n++
	}
}

// TestMRingVersionTrafficConstant pins the timer-chain collapse: version
// traffic per unit time must be constant over an idle run. Before the
// fix, armLearnerTimers re-armed a NEW version chain from every
// gap-recovery tick (every Retry = 20ms), so each elapsed second
// multiplied the number of live chains and the per-second VersionReport
// count grew linearly (second 2 carried roughly 3x second 1). After the
// collapse each learner owns exactly one persistent chain.
func TestMRingVersionTrafficConstant(t *testing.T) {
	cfg := MConfig{
		Ring:     []proto.NodeID{0, 1},
		Learners: []proto.NodeID{100, 101},
		Group:    1,
	}
	var reports int64
	l := lan.New(lan.DefaultConfig(), 1)
	for _, id := range []proto.NodeID{0, 1, 100, 101} {
		a := &MAgent{Cfg: cfg}
		l.AddNode(id, proto.Multi(a, versionCounter{n: &reports}))
		l.Subscribe(1, id)
	}
	l.Start()
	l.Run(time.Second)
	first := reports
	l.Run(time.Second)
	second := reports - first

	// 2 learners x 20 ticks/s, each report received by its preferential
	// acceptor and circulated one hop around the 2-acceptor ring: 80/s.
	if first == 0 {
		t.Fatal("no version reports at all: GC is not running")
	}
	if second > first+first/10 {
		t.Fatalf("version traffic grows with elapsed time: %d reports in second 1, %d in second 2 (timer chains are multiplying again)",
			first, second)
	}
	perLearnerPerSec := int64(time.Second / DefaultGCInterval)
	if ceiling := 2 * perLearnerPerSec * int64(len(cfg.Ring)); second > ceiling {
		t.Fatalf("second-second version traffic %d exceeds the one-chain-per-learner ceiling %d", second, ceiling)
	}
}
