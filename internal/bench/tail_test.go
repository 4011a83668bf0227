package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// TestTailCountsMatchTraceAndDeliver holds every protocol to the invariant
// the shared delivery tail exists for: at a learner, the values counted,
// the values folded into the delivery trace and the values handed to the
// application are the same values — under load, on a small LAN.
func TestTailCountsMatchTraceAndDeliver(t *testing.T) {
	const probeLearner = 100 // first dedicated learner of the M-Ring and Paxos rigs
	spec := func(rec *DelivRecorder) rigSpec {
		return rigSpec{dep: rec.Deployment(), net: lan.DefaultConfig(), load: load{size: 1 << 10, rate: 100e6}}
	}
	// traced returns the rig's lan, its probe tail and the trace the
	// recorder handed to the learner at node id.
	traced := func(rec *DelivRecorder, r *rig, id proto.NodeID) (*lan.LAN, *core.Tail, *core.DelivTrace) {
		for _, s := range rec.scopes {
			if s.key == fmt.Sprintf("d0/L%d", id) {
				return r.l, r.probe, s.tr
			}
		}
		t.Fatalf("no trace registered for learner %d", id)
		return nil, nil, nil
	}
	paxosRig := func(multicast bool) func(*DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
		return func(rec *DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			cfg := paxos.Config{Multicast: multicast, Group: 1, Acceptors: nodeIDs(0, 3), Learners: nodeIDs(probeLearner, 2)}
			return traced(rec, buildPaxos(cfg, spec(rec)), probeLearner)
		}
	}
	ring := nodeIDs(0, 3)
	cases := []struct {
		name  string
		build func(rec *DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace)
	}{
		{"mring", func(rec *DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			cfg := ringpaxos.MConfig{Group: 1, RecycleBatches: true, Ring: ring, Learners: nodeIDs(probeLearner, 2)}
			return traced(rec, buildMRing(cfg, spec(rec)), probeLearner)
		}},
		{"uring", func(rec *DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			cfg := ringpaxos.UConfig{Ring: ring, Learners: ring}
			return traced(rec, buildURing(cfg, spec(rec)), ring[2])
		}},
		{"paxos-multicast", paxosRig(true)},
		{"paxos-unicast", paxosRig(false)},
		{"spaxos", func(rec *DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			return traced(rec, buildSPaxos(abcast.SPaxos{Replicas: ring}, spec(rec)), ring[2])
		}},
		{"lcr", func(*DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			l := lan.New(lan.DefaultConfig(), 1)
			var a *abcast.LCR
			for _, id := range ring {
				a = &abcast.LCR{Ring: ring, Trace: core.NewDelivTrace(0)}
				l.AddNode(id, proto.Multi(a, &pump{size: 1 << 10, rate: 30e6, submit: a.Broadcast}))
			}
			l.Start()
			return l, &a.Tail, a.Trace
		}},
		{"token", func(*DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			l := lan.New(lan.DefaultConfig(), 1)
			var a *abcast.TokenRing
			for _, id := range ring {
				a = &abcast.TokenRing{Ring: ring, Group: 1, Trace: core.NewDelivTrace(0)}
				l.AddNode(id, proto.Multi(a, &pump{size: 1 << 10, rate: 30e6, submit: a.Broadcast}))
				l.Subscribe(1, id)
			}
			l.Start()
			return l, &a.Tail, a.Trace
		}},
		{"multiring-merger", func(rec *DelivRecorder) (*lan.LAN, *core.Tail, *core.DelivTrace) {
			r := buildMultiRing(rec, 2, []int{0, 1}, 50e6, false, 9000, time.Millisecond, 1, 1)
			return r.l, &r.merger.Tail, r.merger.Trace
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, tail, tr := c.build(&DelivRecorder{})
			var delivered int64
			tail.Deliver = func(int64, core.Value) { delivered++ }
			// Stay inside DelivWindow: the recorder's traces stop counting there.
			l.Run(DelivWindow - 5*time.Millisecond)
			if tail.DeliveredMsgs == 0 {
				t.Fatal("nothing was delivered")
			}
			if tail.DeliveredMsgs != tr.Count() || tail.DeliveredMsgs != delivered {
				t.Fatalf("tail counted %d values, the trace noted %d, Deliver saw %d",
					tail.DeliveredMsgs, tr.Count(), delivered)
			}
		})
	}
}
