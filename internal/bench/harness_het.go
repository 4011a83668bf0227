package bench

import (
	"time"

	"repro/internal/abcast"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/ringpaxos"
)

// slowScale is the CPU speed of a "small instance" in the Chapter 7
// heterogeneous runs.
const slowScale = 0.4

// slowNode puts the protocol node at position slow (ring position,
// replica or acceptor index; 0 is the leader/coordinator, -1 nobody) on a
// small instance.
func slowNode(slow int) func(int) lan.NodeConfig {
	return func(i int) lan.NodeConfig {
		if i == slow {
			return lan.NodeConfig{CPUScale: slowScale, BandwidthScale: 0.5}
		}
		return stockNode
	}
}

func runSPaxosHet(rec *DelivRecorder, n, msgSize int, offered float64, lc lan.Config, slow int) abResult {
	return buildSPaxos(abcast.SPaxos{Replicas: nodeIDs(0, n)}, rigSpec{dep: rec.Deployment(), net: lc,
		node: slowNode(slow), load: load{size: msgSize, rate: offered}}).measureAB(0)
}

func runURingHet(rec *DelivRecorder, n, msgSize int, offered float64, lc lan.Config, slow int) abResult {
	cfg := ringpaxos.UConfig{Ring: nodeIDs(0, n), Learners: nodeIDs(0, n)}
	return buildURing(cfg, rigSpec{dep: rec.Deployment(), net: lc,
		node: slowNode(slow), load: load{size: msgSize, rate: offered}}).measureAB(0)
}

// runPaxosHet runs basic Paxos with batch bytes per instance: 0 is the
// unbatched library (one instance per client value), 32 KB the Libpaxos+
// variant (Chapter 7 proposes batching as the fix).
func runPaxosHet(rec *DelivRecorder, nAcc, nLearn, msgSize int, multicast bool, offered float64, lc lan.Config, slow, batch int) abResult {
	cfg := paxos.Config{Coordinator: 0, Multicast: multicast, Group: 1, BatchBytes: batch,
		Acceptors: nodeIDs(0, nAcc), Learners: nodeIDs(100, nLearn)}
	if batch == 0 {
		cfg.BatchBytes, cfg.BatchDelay = 1, time.Microsecond
	}
	return buildPaxos(cfg, rigSpec{dep: rec.Deployment(), net: lc,
		node: slowNode(slow), load: load{size: msgSize, rate: offered}}).measureAB(0)
}
