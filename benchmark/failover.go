package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

const (
	foRunDur   = 2 * time.Second
	foDeadline = 1800 * time.Millisecond // no new commands after this, so the last one's retries finish
	foKillBase = 500 * time.Millisecond
	foKillSpan = 200 * time.Millisecond
	foBytes    = 1024
	foRetry    = 20 * time.Millisecond
	// foThinkMax bounds each session's think time, drawn per session from the
	// run's seed. Without it the closed loops lock onto the 500 us batch
	// timers and every command of a protocol takes exactly the same time.
	foThinkMax = 200 * time.Microsecond
)

// foDetector is the ring-neighbour failure detector tuning the repository's
// own failover experiments use.
var foDetector = ringpaxos.Failover{Heartbeat: 5 * time.Millisecond, Suspect: 15 * time.Millisecond}

// foRig is one protocol's deployment for a single kill run.
type foRig struct {
	lan      *lan.LAN
	nodes    []proto.NodeID
	victim   proto.NodeID
	sessions []*client.Session
	// elected reports whether a surviving process has completed Phase 1 as
	// coordinator; dupSup sums the learners' dedup suppressions.
	elected func() bool
	dupSup  func() int64
	probe   func(deliver core.DeliverFunc) // installs Deliver on the probe learner
	learner func() *core.DelivTrace        // set by the run: a trace per learner
}

// foOutcome is what one kill run contributes.
type foOutcome struct {
	uring                            bool
	outage, detectElect, redirect    time.Duration
	issued, acked                    int64
	retries, nacks, extraBytes, dups int64
	events                           uint64
	msgs, bytes, drops               int64
	violations                       int64
	notes                            []string
}

func foSession(submit func(core.Value), coord func() proto.NodeID) *client.Session {
	return &client.Session{Cfg: client.Config{
		Submit: submit, Coord: coord, Bytes: foBytes, Retry: foRetry, Deadline: foDeadline,
	}}
}

// foMRing wires M-Ring Paxos: ring of 3 with one spare, 2 learners, 4
// exactly-once sessions on their own proposer nodes.
func foMRing(seed int64, tr *tracer, trace func() *core.DelivTrace) *foRig {
	cfg := ringpaxos.MConfig{Group: 1, RecycleBatches: true, Failover: foDetector,
		Ring: []proto.NodeID{0, 1, 2}, Spares: []proto.NodeID{5}, Learners: []proto.NodeID{100, 101}}
	l := lan.New(lan.DefaultConfig(), seed)
	rig := &foRig{lan: l, victim: cfg.Coordinator()}
	var members, learners []*ringpaxos.MAgent
	for _, id := range []proto.NodeID{0, 1, 2, 5, 100, 101} {
		a := &ringpaxos.MAgent{Cfg: cfg}
		if id >= 100 {
			a.Trace = trace()
			learners = append(learners, a)
		} else if id != rig.victim {
			members = append(members, a)
		}
		l.AddNode(id, tr.handler(a, lyRingpaxos))
		l.Subscribe(cfg.Group, id)
		rig.nodes = append(rig.nodes, id)
	}
	for i := 0; i < 4; i++ {
		id := proto.NodeID(200 + i)
		prop := &ringpaxos.MAgent{Cfg: cfg}
		ses := foSession(prop.Propose, prop.Coordinator)
		l.AddNode(id, proto.Multi(tr.handler(prop, lyRingpaxos), tr.handler(ses, lyLoad)))
		l.Subscribe(cfg.Group, id) // so the proposer re-aims at the elected coordinator
		rig.nodes = append(rig.nodes, id)
		rig.sessions = append(rig.sessions, ses)
	}
	rig.elected = func() bool {
		for _, a := range members {
			if a.IsCoordinator() {
				return true
			}
		}
		return false
	}
	rig.dupSup = func() (n int64) {
		for _, a := range learners {
			n += a.DupSuppressed
		}
		return n
	}
	rig.probe = func(d core.DeliverFunc) { learners[0].Deliver = d }
	return rig
}

// foURing wires U-Ring Paxos: a 4-process ring whose first 3 are acceptors,
// every process a learner. A session lives on a ring process (it proposes
// through that process's agent) and its client id is the node id, so the
// three survivors carry one session each; node 0, the coordinator, is the
// victim.
func foURing(seed int64, tr *tracer, trace func() *core.DelivTrace) *foRig {
	cfg := ringpaxos.UConfig{NumAcceptors: 3, Failover: foDetector}
	const n = 4
	for i := 0; i < n; i++ {
		cfg.Ring = append(cfg.Ring, proto.NodeID(i))
		cfg.Learners = append(cfg.Learners, proto.NodeID(i))
	}
	l := lan.New(lan.DefaultConfig(), seed)
	rig := &foRig{lan: l, victim: 0}
	agents := make([]*ringpaxos.UAgent, n)
	for i := range agents {
		a := &ringpaxos.UAgent{Cfg: cfg, Trace: trace()}
		agents[i] = a
		h := tr.handler(a, lyRingpaxos)
		if i > 0 {
			ses := foSession(a.Propose, a.Coordinator)
			rig.sessions = append(rig.sessions, ses)
			h = proto.Multi(h, tr.handler(ses, lyLoad))
		}
		l.AddNode(proto.NodeID(i), h)
		rig.nodes = append(rig.nodes, proto.NodeID(i))
	}
	rig.elected = func() bool {
		for _, a := range agents[1:] {
			if a.IsCoordinator() {
				return true
			}
		}
		return false
	}
	rig.dupSup = func() (n int64) {
		for _, a := range agents {
			n += a.DupSuppressed
		}
		return n
	}
	rig.probe = func(d core.DeliverFunc) { agents[n-1].Deliver = d }
	return rig
}

// foRun builds one rig, kills its coordinator for good at killAt and runs
// foRunDur of simulated time. Latencies of acknowledged commands are appended
// to lat.
func foRun(uring bool, seed int64, killAt time.Duration, tr *tracer, lat *[]time.Duration) (foOutcome, *foRig) {
	orc := core.NewOracle()
	orc.EnableClientCheck()
	trace := func() *core.DelivTrace { return oracleTrace(orc) }
	build := foMRing
	if uring {
		build = foURing
	}
	rig := build(seed, tr, trace)
	l := rig.lan
	out := foOutcome{uring: uring}

	thinks := rand.New(rand.NewSource(seed))
	issuedAt := map[int64]time.Duration{}
	var acks []time.Duration // every acknowledgment's instant, in order
	for _, s := range rig.sessions {
		s.Cfg.Think = time.Duration(thinks.Int63n(int64(foThinkMax)))
		s.Cfg.OnIssue = func(c, seq int64) {
			orc.NoteClientIssued(c, seq)
			issuedAt[c] = l.Sim.Now()
			tr.begin(c, l.Sim.Now())
		}
		s.Cfg.OnAck = func(c, seq int64) {
			orc.NoteClientAcked(c, seq)
			now := l.Sim.Now()
			*lat = append(*lat, now-issuedAt[c])
			tr.end(c, "acked", now)
			acks = append(acks, now)
		}
	}
	if tr != nil {
		rig.probe(func(_ int64, v core.Value) { tr.mark(v.Client, "ordered", l.Sim.Now()) })
	}
	l.InstallFaults(fault.New(seed).Crash(killAt, rig.victim, fault.Lose))
	l.Start()

	run := func(d time.Duration) {
		if tr != nil {
			tr.main.enter(lyDispatch)
			defer tr.main.exit()
		}
		l.Run(d)
	}
	// Run to the kill, then in 1 ms steps until a survivor is coordinator:
	// stepping does not change the schedule, it only lets the benchmark
	// look at IsCoordinator between events.
	run(killAt)
	var electedAt time.Duration
	for l.Sim.Now() < foRunDur {
		run(time.Millisecond)
		if rig.elected() {
			electedAt = l.Sim.Now()
			break
		}
	}
	run(foRunDur - l.Sim.Now())

	out.events = l.Sim.Steps()
	for _, id := range rig.nodes {
		s := l.Node(id).Stats()
		out.msgs += s.MsgsSent
		out.bytes += s.BytesSent
		out.drops += s.MsgsDropped
	}
	for _, s := range rig.sessions {
		out.issued += s.Stats.Issued
		out.acked += s.Stats.Acked
		out.retries += s.Stats.Retries
		out.nacks += s.Stats.Nacks
		out.extraBytes += s.Stats.ExtraBytes
	}
	out.dups = rig.dupSup()
	// The outage is the longest ack-free interval that ends after the kill:
	// decisions already in flight are still acknowledged for a moment after
	// it, so the first ack after the kill does not end the outage.
	var resumed time.Duration
	for i := 1; i < len(acks); i++ {
		if gap := acks[i] - acks[i-1]; acks[i] > killAt && gap > out.outage {
			out.outage, resumed = gap, acks[i]
		}
	}
	if electedAt == 0 || resumed == 0 {
		out.violations++
		out.notes = append(out.notes, fmt.Sprintf("seed %d uring=%v kill at %v: no coordinator elected, or service never resumed", seed, uring, killAt))
	} else {
		out.detectElect = electedAt - killAt
		// The election is seen at the next 1 ms step, so service can resume
		// up to a step before electedAt.
		if out.redirect = resumed - electedAt; out.redirect < 0 {
			out.redirect = 0
		}
	}
	if v := oracleViolations(orc); v != 0 || out.issued != out.acked {
		out.violations += v + abs64(out.issued-out.acked)
		out.notes = append(out.notes, fmt.Sprintf("seed %d uring=%v: %s issued=%d acked=%d %s %s",
			seed, uring, orc.Verdict(), out.issued, out.acked, orc.FirstDivergence(), orc.FirstDuplicate()))
	}
	return out, rig
}

// foKeep is how many finished rigs stay referenced: the state heap_live_mb
// reads after the load. Several, because one rig's size depends on where its
// kill fell.
const foKeep = 8

// foChunk is one chunk: pairs derived seeds, each run once per protocol. It
// also returns the last foKeep rigs. The two protocols' latencies differ by
// half, so a percentile of their mix would sit on the edge between them; the
// chunk reports the mean of the two protocols' percentiles instead.
func foChunk(rng *rand.Rand, pairs int, tr *tracer) (chunk, []foOutcome, []*foRig) {
	var outs []foOutcome
	var lat [2][]time.Duration
	var last []*foRig
	ns, mallocs := hostCost(func() {
		for i := 0; i < pairs; i++ {
			seed := rng.Int63()
			killAt := foKillBase + time.Duration(rng.Int63n(int64(foKillSpan)))
			for u, uring := range []bool{false, true} {
				o, rig := foRun(uring, seed, killAt, tr, &lat[u])
				outs = append(outs, o)
				if last = append(last, rig); len(last) > foKeep {
					last = last[1:]
				}
			}
		}
	})
	ck := chunk{hostNs: ns, mallocs: mallocs, clock: time.Duration(2*pairs) * foRunDur}
	for _, o := range outs {
		ck.cmds += o.acked
		ck.events += o.events
	}
	for u := range lat {
		p50, p90, p99, n := latCut(&lat[u])
		ck.p50us += p50 / 2
		ck.p90us += p90 / 2
		ck.p99us += p99 / 2
		if u == 0 || n < ck.latN {
			ck.latN = n
		}
	}
	return ck, outs, last
}

// foPass measures n chunks and folds their outcomes.
type foPass struct {
	sum       chunkSummary
	outs      []foOutcome
	attempted int64
	failed    int64
	notes     []string
	last      []*foRig
}

func foMeasure(rng *rand.Rand, pairs, n int, tr *tracer) foPass {
	var p foPass
	chunks := make([]chunk, 0, n)
	for i := 0; i < n; i++ {
		ck, outs, last := foChunk(rng, pairs, tr)
		p.last = last
		chunks = append(chunks, ck)
		p.outs = append(p.outs, outs...)
	}
	p.sum = summarize(chunks)
	for _, o := range p.outs {
		p.attempted += o.issued
		p.failed += o.violations
		p.notes = append(p.notes, o.notes...)
	}
	return p
}

// foPairsPerSecond sizes a chunk: derived seeds per chunk per unit of
// -seconds, a constant of the benchmark (see simWorkload.chunkPerSecond).
const foPairsPerSecond = 1.35

func runFailover(name string, seed int64, seconds float64, traced bool) (*result, error) {
	pairs := int(foPairsPerSecond*seconds + 0.5)
	if pairs < 1 {
		pairs = 1
	}
	res := newResult()
	if !traced {
		// Every run builds its own rig (the kill is permanent), so set-up is
		// the warm-up chunk: one full chunk of runs, discarded.
		var secs []float64
		var rng *rand.Rand
		for i := 0; i < setupRepeats; i++ {
			rng = rand.New(rand.NewSource(seed))
			runtime.GC()
			t0 := time.Now()
			foChunk(rng, pairs, nil)
			secs = append(secs, time.Since(t0).Seconds())
		}
		runtime.GC()
		p := foMeasure(rng, pairs, measuredChunks, nil)
		res.absorb(p.attempted, p.failed, p.notes)
		res.endToEnd(median(secs), p.sum, heapLiveMB())
		res.detail("chunks=%d runs=%d cmds=%d host=%.2fs rate q1/med/q3=%.0f/%.0f/%.0f cmds/s lat samples/chunk>=%d (tail p%v supported)",
			measuredChunks, len(p.outs), p.sum.cmds, float64(p.sum.hostNs)/1e9, p.sum.rateQ1, p.sum.hostCmdsPerS, p.sum.rateQ3, p.sum.latN, tailPercentile(p.sum.latN))
		runtime.KeepAlive(p)
		return res, nil
	}

	draw := func() *rand.Rand {
		rng := rand.New(rand.NewSource(seed))
		foChunk(rng, pairs, nil) // the warm-up chunk's draws
		return rng
	}
	plain := foMeasure(draw(), pairs, tracedChunks, nil)
	tr := newTracer()
	withTrace := foMeasure(draw(), pairs, tracedChunks, tr)
	res.absorb(plain.attempted+withTrace.attempted, plain.failed+withTrace.failed, append(plain.notes, withTrace.notes...))

	m := res.layer
	var outage, mOut, uOut, detect, redirect []float64
	var retries, nacks, extra, dups, msgs, bytes, drops, violations int64
	for _, o := range plain.outs {
		ms := float64(o.outage) / float64(time.Millisecond)
		outage = append(outage, ms)
		if o.uring {
			uOut = append(uOut, ms)
		} else {
			mOut = append(mOut, ms)
		}
		detect = append(detect, float64(o.detectElect)/float64(time.Millisecond))
		redirect = append(redirect, float64(o.redirect)/float64(time.Millisecond))
		retries += o.retries
		nacks += o.nacks
		extra += o.extraBytes
		dups += o.dups
		msgs += o.msgs
		bytes += o.bytes
		drops += o.drops
		violations += o.violations
	}
	cmds := float64(plain.sum.cmds)
	m["outage_ms"] = median(outage)
	m["ringpaxos.mring.outage_ms"] = median(mOut)
	m["ringpaxos.uring.outage_ms"] = median(uOut)
	m["ringpaxos.detect_elect_ms"] = median(detect)
	m["ringpaxos.dup_suppressed"] = float64(dups)
	m["client.redirect_ms"] = median(redirect)
	m["client.retries_per_kcmd"] = 1000 * float64(retries) / cmds
	m["client.nacks"] = float64(nacks)
	m["client.extra_bytes"] = float64(extra)
	simLayerMetrics(res, plain.sum, withTrace.sum, tr)
	m["lan.msgs_per_cmd"] = float64(msgs) / cmds
	m["lan.bytes_per_cmd"] = float64(bytes) / cmds
	m["lan.drops_per_kcmd"] = 1000 * float64(drops) / cmds
	m["ringpaxos.order_lat_p50_us"], _ = tr.stageGap("issued", "ordered")
	for _, o := range withTrace.outs {
		violations += o.violations
	}
	m["core.oracle_violations"] = float64(violations)
	if err := tr.write(outDir, name, "simulated", seed, withTrace.sum.cmds); err != nil {
		return nil, err
	}
	res.detail("untraced %d chunks: runs=%d cmds=%d host=%.2fs; traced: cmds=%d host=%.2fs chains=%d",
		tracedChunks, len(plain.outs), plain.sum.cmds, float64(plain.sum.hostNs)/1e9, withTrace.sum.cmds, float64(withTrace.sum.hostNs)/1e9, len(tr.done))
	return res, nil
}
