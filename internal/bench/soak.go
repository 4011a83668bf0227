package bench

// Long-run soak workloads: a new experiment class that none of the paper's
// figures expresses. Each soak runs one ordering protocol for soakDur —
// roughly 10x the warmup+measure window every figure reproduction uses —
// under sustained offered load, twice: once with the shared learner-version
// garbage collection (§3.3.7) enabled and once without. At every simulated
// second it samples the total number of per-instance log records retained
// across all agents (acceptor vote logs, coordinator windows and decision
// logs, learner reorder buffers). With GC the series is flat; without it
// the series grows by one record per consensus instance forever — the
// memory leak that made long-lived deployments impossible before this
// subsystem existed.
//
// The sampled series is deterministic for a fixed seed, so soak outputs
// are golden-pinned like every figure. Heap occupancy (runtime.MemStats
// HeapAlloc), which is NOT deterministic, never appears in the text:
// it is recorded on a side channel that the sequential cmd/repro
// -allocs / -check-allocs path reads, which is how CI asserts a hard
// HeapAlloc ceiling on the GC-enabled runs.

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/abcast"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/paxos"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

func init() {
	register(Experiment{ID: "soak.mring", Title: "M-Ring Paxos 10 s soak: live log records, GC on vs off", Traced: runSoakMRing})
	register(Experiment{ID: "soak.uring", Title: "U-Ring Paxos 10 s soak: live log records, GC on vs off", Traced: runSoakURing})
	register(Experiment{ID: "soak.paxos", Title: "basic Paxos 10 s soak: live log records, GC on vs off", Traced: runSoakPaxos})
	register(Experiment{ID: "soak.spaxos", Title: "S-Paxos 10 s soak: live log records, GC on vs off", Traced: runSoakSPaxos})
}

const (
	soakDur  = 10 * time.Second // ~10x the 1 s (warmup+measure) figure window
	soakStep = time.Second
)

// soakSampling gates the nondeterministic half of a soak run, kept out of
// the golden-pinned text and surfaced through cmd/repro -allocs instead
// (AllocResult's heap fields, via foldStats): HeapAlloc figures are
// sampled only while it is set, after a forced GC at each checkpoint so
// they measure live bytes, not uncollected garbage.
var soakSampling atomic.Bool

// SetSoakSampling toggles heap sampling at soak checkpoints. It is enabled
// only on the sequential alloc-profiling path: under the parallel golden
// runner, concurrent experiments would attribute each other's heap.
func SetSoakSampling(on bool) { soakSampling.Store(on) }

// noteSoak records one checkpoint of the GC-enabled soak run.
func noteSoak(id string, live int) {
	var heap uint64
	if soakSampling.Load() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
	}
	foldStats(id, func(r *AllocResult) {
		r.HeapAllocPeak = max(r.HeapAllocPeak, heap)
		r.HeapAllocEnd = heap
		r.LiveLogPeak = max(r.LiveLogPeak, live)
		r.LiveLogEnd = live
	})
}

// soakSample is one per-second checkpoint of a soak run.
type soakSample struct {
	live      int
	delivered int64
}

// soakRun drives one deployment for soakDur, sampling every soakStep.
// When id is non-empty the samples also feed the heap side channel (only
// the GC-enabled variant passes an id: the ceiling must assert on the
// bounded configuration, not on the deliberately leaky control).
func soakRun(l *lan.LAN, id string, live func() int, delivered func() int64) []soakSample {
	samples := make([]soakSample, 0, int(soakDur/soakStep))
	for t := soakStep; t <= soakDur; t += soakStep {
		l.Run(soakStep)
		s := soakSample{live: live(), delivered: delivered()}
		samples = append(samples, s)
		if id != "" {
			noteSoak(id, s.live)
		}
	}
	return samples
}

// soakReport prints the combined gc-on/gc-off table plus the flatness
// verdict the golden pin (and a human) checks: the GC-enabled run's final
// live-record count must not exceed twice its early peak (plus slack for
// ring-buffer granularity), while the control's final count shows what one
// log entry per instance forever looks like.
func soakReport(w io.Writer, title string, on, off []soakSample) {
	t := newTable(title, "t(s)", "gc.live", "gc.delivered", "nogc.live", "nogc.delivered")
	for i := range on {
		t.row(i+1, on[i].live, on[i].delivered, off[i].live, off[i].delivered)
	}
	earlyPeak, peak := 0, 0
	for i, s := range on {
		if i < 3 && s.live > earlyPeak {
			earlyPeak = s.live
		}
		if s.live > peak {
			peak = s.live
		}
	}
	final := on[len(on)-1].live
	offFinal := off[len(off)-1].live
	verdict := "PASS"
	if final > 2*earlyPeak+32 {
		verdict = "FAIL"
	}
	t.note("gc=on: early peak %d, overall peak %d, final %d live records", earlyPeak, peak, final)
	t.note("gc=off control: final %d live records (one per undelivered-from-log instance, growing with elapsed time)", offFinal)
	t.note("bounded-memory check: %s (final %d <= 2x early peak %d + 32)", verdict, final, earlyPeak)
	t.print(w)
}

// --- deployments ---

// soakMRing wires the same M-Ring deployment the Chapter 3 figures use
// — default Retry included: the learner timer-chain multiplication that
// once forced a tamer Retry here is fixed (one persistent version chain
// per learner, see armLearnerTimers) — and returns its sampling hooks.
func soakMRing(dep *DelivDeployment, gcInterval time.Duration) (*lan.LAN, func() int, func() int64) {
	cfg := ringpaxos.MConfig{
		Group:          1,
		GCInterval:     gcInterval,
		RecycleBatches: true,
	}
	cfg.Ring = []proto.NodeID{0, 1}
	cfg.Learners = []proto.NodeID{100, 101}
	l := lan.New(lan.DefaultConfig(), 1)
	var agents []*ringpaxos.MAgent
	for _, id := range append(append([]proto.NodeID{}, cfg.Ring...), cfg.Learners...) {
		a := &ringpaxos.MAgent{Cfg: cfg}
		agents = append(agents, a)
		l.AddNode(id, a)
		l.Subscribe(1, id)
	}
	for i, id := range cfg.Learners {
		agents[len(cfg.Ring)+i].Trace = dep.Learner(id)
	}
	prop := &ringpaxos.MAgent{Cfg: cfg}
	p := &pump{size: 1024, rate: 20e6, submit: prop.Propose}
	l.AddNode(200, proto.Multi(prop, p))
	l.Start()
	probe := agents[2]
	live := func() int {
		n := 0
		for _, a := range agents {
			n += a.LiveLogLen()
		}
		return n
	}
	return l, live, func() int64 { return probe.DeliveredMsgs }
}

func runSoakMRing(w io.Writer, rec *DelivRecorder) {
	// M-Ring GC is always on (it predates the shared subsystem); the
	// control opts out with the explicit -1 interval.
	lOn, liveOn, delOn := soakMRing(rec.Deployment(), 0) // 0 = the 50 ms default
	on := soakRun(lOn, "soak.mring", liveOn, delOn)
	lOff, liveOff, delOff := soakMRing(rec.Deployment(), -1)
	off := soakRun(lOff, "", liveOff, delOff)
	soakReport(w, "soak.mring — M-Ring Paxos, 20 Mbps of 1 KB values for 10 s", on, off)
}

func soakURing(dep *DelivDeployment, gc bool) (*lan.LAN, func() int, func() int64) {
	// gc=true exercises the on-by-default path (zero GCInterval resolves
	// to DefaultGCInterval); the control opts out with the explicit -1.
	cfg := ringpaxos.UConfig{NumAcceptors: 3}
	if gc {
		cfg.RecycleBatches = true
	} else {
		cfg.GCInterval = -1
	}
	const n = 4
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	l := lan.New(lan.DefaultConfig(), 1)
	agents := make([]*ringpaxos.UAgent, n)
	for i := 0; i < n; i++ {
		agents[i] = &ringpaxos.UAgent{Cfg: cfg}
		agents[i].Trace = dep.Learner(proto.NodeID(i))
		var hs []proto.Handler
		hs = append(hs, agents[i])
		if i == 0 {
			p := &pump{size: 1024, rate: 20e6, submit: agents[i].Propose}
			hs = append(hs, p)
		}
		l.AddNode(proto.NodeID(i), proto.Multi(hs...))
	}
	l.Start()
	probe := agents[n-1]
	live := func() int {
		t := 0
		for _, a := range agents {
			t += a.LiveLogLen()
		}
		return t
	}
	return l, live, func() int64 { return probe.DeliveredMsgs }
}

func runSoakURing(w io.Writer, rec *DelivRecorder) {
	lOn, liveOn, delOn := soakURing(rec.Deployment(), true)
	on := soakRun(lOn, "soak.uring", liveOn, delOn)
	lOff, liveOff, delOff := soakURing(rec.Deployment(), false)
	off := soakRun(lOff, "", liveOff, delOff)
	soakReport(w, "soak.uring — U-Ring Paxos (3 acceptors, 4-process ring), 20 Mbps of 1 KB values for 10 s", on, off)
}

func soakPaxos(dep *DelivDeployment, gc bool) (*lan.LAN, func() int, func() int64) {
	// gc=true exercises the on-by-default path (zero GCInterval resolves
	// to DefaultGCInterval); the control opts out with the explicit -1.
	cfg := paxos.Config{Coordinator: 0}
	if gc {
		cfg.RecycleBatches = true
	} else {
		cfg.GCInterval = -1
	}
	cfg.Acceptors = []proto.NodeID{0, 1, 2}
	cfg.Learners = []proto.NodeID{100, 101}
	l := lan.New(lan.DefaultConfig(), 1)
	var agents []*paxos.Agent
	var delivered int64
	for i, id := range append(append([]proto.NodeID{}, cfg.Acceptors...), cfg.Learners...) {
		a := &paxos.Agent{Cfg: cfg}
		if i >= len(cfg.Acceptors) {
			a.Trace = dep.Learner(id)
		}
		if i == len(cfg.Acceptors) { // first learner is the probe
			a.Deliver = func(_ int64, v core.Value) { delivered++ }
		}
		agents = append(agents, a)
		l.AddNode(id, a)
	}
	prop := &paxos.Agent{Cfg: cfg}
	p := &pump{size: 512, rate: 10e6, submit: prop.Propose}
	l.AddNode(200, proto.Multi(prop, p))
	l.Start()
	live := func() int {
		n := 0
		for _, a := range agents {
			n += a.LiveLogLen()
		}
		return n
	}
	return l, live, func() int64 { return delivered }
}

func runSoakPaxos(w io.Writer, rec *DelivRecorder) {
	lOn, liveOn, delOn := soakPaxos(rec.Deployment(), true)
	on := soakRun(lOn, "soak.paxos", liveOn, delOn)
	lOff, liveOff, delOff := soakPaxos(rec.Deployment(), false)
	off := soakRun(lOff, "", liveOff, delOff)
	soakReport(w, "soak.paxos — basic Paxos (3 acceptors, 2 learners, unicast), 10 Mbps of 512 B values for 10 s", on, off)
}

func soakSPaxos(dep *DelivDeployment, gc bool) (*lan.LAN, func() int, func() int64) {
	reps := []proto.NodeID{0, 1, 2}
	l := lan.New(lan.DefaultConfig(), 1)
	agents := make([]*abcast.SPaxos, len(reps))
	for i := range reps {
		// gc=true exercises the on-by-default path (zero GCInterval
		// resolves to the inner agent's default); the control opts out
		// with the explicit -1.
		agents[i] = &abcast.SPaxos{Replicas: reps}
		agents[i].Trace = dep.Learner(reps[i])
		if !gc {
			agents[i].GCInterval = -1
		}
		p := &pump{size: 512, rate: 10e6 / float64(len(reps)), submit: agents[i].Submit}
		l.AddNode(reps[i], proto.Multi(agents[i], p))
	}
	l.Start()
	probe := agents[len(reps)-1]
	live := func() int {
		n := 0
		for _, a := range agents {
			n += a.LiveLogLen()
		}
		return n
	}
	return l, live, func() int64 { return probe.DeliveredMsgs }
}

func runSoakSPaxos(w io.Writer, rec *DelivRecorder) {
	lOn, liveOn, delOn := soakSPaxos(rec.Deployment(), true)
	on := soakRun(lOn, "soak.spaxos", liveOn, delOn)
	lOff, liveOff, delOff := soakSPaxos(rec.Deployment(), false)
	off := soakRun(lOff, "", liveOff, delOff)
	soakReport(w, "soak.spaxos — S-Paxos (3 replicas), 10 Mbps of 512 B values for 10 s", on, off)
}
