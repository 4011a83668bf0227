package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/multiring"
	"repro/internal/proto"
	"repro/internal/ringpaxos"
)

// Chunk counts. An untraced run measures measuredChunks chunks after one
// warm-up chunk; a traced run measures tracedChunks on an untraced deployment
// and again on a traced one, so both fit the same -seconds budget.
const (
	measuredChunks = 10
	tracedChunks   = 3
	setupRepeats   = 3
	// drainSim is the simulated time in-flight commands get to finish after
	// the load stops: ten times the slowest workload's p99.
	drainSim = 200 * time.Millisecond
)

// load is the benchmark's ledger of one deployment's closed- or open-loop
// load: what was handed to the system, what completed, and the completed
// commands' latencies in the workload's clock since the last chunk cut.
type load struct {
	stopped bool
	issued  int64
	done    int64
	class   [2]int64 // completions by client class (even / odd client index)
	lat     []time.Duration
}

// clientState is the part of a closed-loop client's progress the ledger has
// already folded in.
type clientState struct {
	key   int64
	class int
	seen  int64
	sum   time.Duration
}

// submit is called from a closed-loop client's Submit hook with the client's
// own Completed/LatencySum counters. Those clients issue their next command
// from the completion of the previous one, so a grown Completed at Submit
// time is exactly one finished command whose latency is the LatencySum step.
// It reports whether the new command should be forwarded: after stop the
// command is parked, which ends the closed loop without touching the client.
func (l *load) submit(tr *tracer, c *clientState, completed int64, latSum, now time.Duration) bool {
	if completed > c.seen {
		l.done++
		l.class[c.class]++
		l.lat = append(l.lat, latSum-c.sum)
		c.seen, c.sum = completed, latSum
		tr.end(c.key, "replied", now)
	}
	if l.stopped {
		return false
	}
	l.issued++
	tr.begin(c.key, now)
	return true
}

// counters are cumulative counts read from the program's public counters;
// per-layer "exact" metrics are differences of two snapshots.
type counters struct {
	msgs, bytes, drops     int64
	coordBusy, replicaBusy time.Duration
	probeMsgs, probeInsts  int64
	barrierWaits           int64
	dedupHits              int64
	class                  [2]int64 // completions per client class
}

// simDep is one simulated deployment with the benchmark's hooks installed.
type simDep struct {
	lan  *lan.LAN
	load *load
	tr   *tracer

	nodes          []proto.NodeID // every node, for summed lan.Stats
	coord, replica proto.NodeID   // whose modelled CPU is reported
	probe          *ringpaxos.MAgent
	orderLat       *[]time.Duration // Born→deliver at the probe learner, when values carry Born
	agents         []*ringpaxos.MAgent
	mergers        []*multiring.Merger
	oracles        []*core.Oracle
	extra          func(c *counters) // workload-specific counters

	// check reports workload-specific failures after the drain.
	check func() (failed int64, notes []string)

	liveLogPeak, mergerPeak int
	pending                 []float64
	orderP50                []float64
}

// oracleTrace returns a delivery trace that only forwards to a new cursor of
// o: the 1 ns window keeps the trace's own SHA-256 out of the measured path.
func oracleTrace(o *core.Oracle) *core.DelivTrace {
	t := core.NewDelivTrace(time.Nanosecond)
	t.Chain(o.Learner())
	return t
}

func (d *simDep) snap() counters {
	var c counters
	for _, id := range d.nodes {
		s := d.lan.Node(id).Stats()
		c.msgs += s.MsgsSent
		c.bytes += s.BytesSent
		c.drops += s.MsgsDropped
	}
	c.class = d.load.class
	c.coordBusy = d.lan.Node(d.coord).CPUBusy()
	c.replicaBusy = d.lan.Node(d.replica).CPUBusy()
	if d.probe != nil {
		c.probeMsgs, c.probeInsts = d.probe.DeliveredMsgs, d.probe.NextDeliver()
	}
	if d.extra != nil {
		d.extra(&c)
	}
	return c
}

// hostCost runs fn and returns the host time and heap allocations it took.
func hostCost(fn func()) (ns int64, mallocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	ns = int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	return ns, m1.Mallocs - m0.Mallocs
}

// runChunk advances the deployment by dur of simulated time and returns the
// chunk's record.
func (d *simDep) runChunk(dur time.Duration) chunk {
	c0, e0 := d.load.done, d.lan.Sim.Steps()
	ns, mallocs := hostCost(func() {
		if d.tr != nil {
			d.tr.main.enter(lyDispatch)
			defer d.tr.main.exit()
		}
		d.lan.Run(dur)
	})
	ck := chunk{cmds: d.load.done - c0, hostNs: ns, mallocs: mallocs, events: d.lan.Sim.Steps() - e0, clock: dur}
	ck.p50us, ck.p90us, ck.p99us, ck.latN = latCut(&d.load.lat)
	for _, a := range d.agents {
		if n := a.LiveLogLen(); n > d.liveLogPeak {
			d.liveLogPeak = n
		}
	}
	buffered := 0
	for _, m := range d.mergers {
		buffered += m.Buffered()
	}
	if buffered > d.mergerPeak {
		d.mergerPeak = buffered
	}
	d.pending = append(d.pending, float64(d.lan.Sim.Pending()))
	if d.orderLat != nil {
		p50, _, _, n := latCut(d.orderLat)
		if n > 0 {
			d.orderP50 = append(d.orderP50, p50)
		}
	}
	return ck
}

// drain stops the load, lets in-flight commands finish, and returns how many
// issued commands never completed plus the oracles' violations.
func (d *simDep) drain() (failed, violations int64, notes []string) {
	d.load.stopped = true
	d.lan.Run(drainSim)
	if lost := d.load.issued - d.load.done; lost != 0 {
		failed += abs64(lost)
		notes = append(notes, fmt.Sprintf("%d issued commands did not complete exactly once after the drain", lost))
	}
	for i, o := range d.oracles {
		v := oracleViolations(o)
		if v != 0 {
			notes = append(notes, fmt.Sprintf("oracle %d: %s %s %s", i, o.Verdict(), o.FirstDivergence(), o.FirstDuplicate()))
		}
		violations += v
	}
	if d.check != nil {
		f, n := d.check()
		failed += f
		notes = append(notes, n...)
	}
	return failed + violations, violations, notes
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// simPass is the outcome of measuring one deployment.
type simPass struct {
	sum        chunkSummary
	delta      counters
	dep        *simDep
	failed     int64
	violations int64
	attempted  int64
	notes      []string
	heapMB     float64
}

// measureSim runs n measured chunks on a warmed-up deployment, drains it and
// reads the heap that stays live.
func measureSim(d *simDep, chunkDur time.Duration, n int) simPass {
	runtime.GC()
	before := d.snap()
	issued0 := d.load.issued
	chunks := make([]chunk, 0, n)
	for i := 0; i < n; i++ {
		chunks = append(chunks, d.runChunk(chunkDur))
	}
	p := simPass{sum: summarize(chunks), dep: d}
	after := d.snap()
	p.delta = counters{
		msgs: after.msgs - before.msgs, bytes: after.bytes - before.bytes, drops: after.drops - before.drops,
		coordBusy: after.coordBusy - before.coordBusy, replicaBusy: after.replicaBusy - before.replicaBusy,
		probeMsgs: after.probeMsgs - before.probeMsgs, probeInsts: after.probeInsts - before.probeInsts,
		barrierWaits: after.barrierWaits - before.barrierWaits, dedupHits: after.dedupHits - before.dedupHits,
		class: [2]int64{after.class[0] - before.class[0], after.class[1] - before.class[1]},
	}
	p.failed, p.violations, p.notes = d.drain()
	p.attempted = d.load.issued - issued0
	p.heapMB = heapLiveMB()
	runtime.KeepAlive(d)
	return p
}

// heapLiveMB forces a collection and returns what stays allocated.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// simLayerMetrics fills the per-layer metrics every sim-* workload derives the
// same way from its untraced and traced passes, and fails the run if the
// traced pass did not repeat the untraced one's simulated results exactly:
// the wrappers must change no behaviour.
func simLayerMetrics(res *result, plain, traced chunkSummary, tr *tracer) {
	m := res.layer
	cmds := float64(plain.cmds)
	m["sim_cmds_per_s"] = cmds / plain.clock.Seconds()
	m["lat_p99_us"] = plain.latP99
	m["sim.events_per_cmd"] = float64(plain.events) / cmds
	m["sim.host_ns_per_event"] = float64(plain.hostNs) / float64(plain.events)
	self, _ := tr.totals()
	tcmds := float64(traced.cmds)
	m["lan.env_call_ns_per_cmd"] = float64(self[lySend]+self[lyEnv]) / tcmds
	m["lan.dispatch_self_ns_per_cmd"] = float64(self[lyDispatch]) / tcmds
	m["ringpaxos.handler_self_ns_per_cmd"] = float64(self[lyRingpaxos]) / tcmds
	m["trace.overhead_share"] = (traced.hostNsPerCmd - plain.hostNsPerCmd) / plain.hostNsPerCmd
	if plain.cmds != traced.cmds || plain.events != traced.events ||
		plain.latP50 != traced.latP50 || plain.latP99 != traced.latP99 {
		res.fail(1, fmt.Sprintf("traced pass diverged from untraced: cmds %d/%d events %d/%d p50 %v/%v p99 %v/%v",
			plain.cmds, traced.cmds, plain.events, traced.events, plain.latP50, traced.latP50, plain.latP99, traced.latP99))
	}
}

// oracleViolations counts what an oracle holds against a run.
func oracleViolations(o *core.Oracle) int64 {
	return int64(o.Divergences() + o.DupApplications() + o.AckGaps() + o.Unacked())
}

// simWorkload describes one sim-* throughput workload.
type simWorkload struct {
	// chunkPerSecond is the simulated time of one chunk per unit of -seconds.
	// It is a constant of the benchmark, calibrated once so that a chunk
	// costs about a tenth of -seconds on the reference box, and never
	// adapts: two commits compared at the same -seconds do identical work.
	chunkPerSecond time.Duration
	build          func(seed int64, tr *tracer) *simDep
	// layer adds the workload's own per-layer metrics: exact counts from the
	// untraced pass, self times from the traced one.
	layer func(m metrics, plain, traced *simPass, tr *tracer)
	// probes runs the direct call loops sized to this workload.
	probes func(m metrics, p *simPass, seed int64, seconds float64)
}

func (w simWorkload) chunkDur(seconds float64) time.Duration {
	return time.Duration(float64(w.chunkPerSecond) * seconds).Round(time.Millisecond)
}

// setup builds a deployment and runs the warm-up chunk.
func (w simWorkload) setup(seed int64, tr *tracer, chunkDur time.Duration) *simDep {
	d := w.build(seed, tr)
	d.tr = tr
	d.runChunk(chunkDur)
	return d
}

// timedSetup sets up setupRepeats times and returns the last deployment and the
// median set-up time.
func (w simWorkload) timedSetup(seed int64, chunkDur time.Duration) (*simDep, float64) {
	var d *simDep
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		d = nil // so the collection below frees the previous deployment
		runtime.GC()
		t0 := time.Now()
		d = w.setup(seed, nil, chunkDur)
		secs = append(secs, time.Since(t0).Seconds())
	}
	return d, median(secs)
}

func (w simWorkload) run(name string, seed int64, seconds float64, traced bool) (*result, error) {
	chunkDur := w.chunkDur(seconds)
	if chunkDur <= 0 {
		return nil, fmt.Errorf("-seconds %v is too short for %s", seconds, name)
	}
	res := newResult()
	if !traced {
		d, setupS := w.timedSetup(seed, chunkDur)
		p := measureSim(d, chunkDur, measuredChunks)
		res.absorb(p.attempted, p.failed, p.notes)
		res.endToEnd(setupS, p.sum, p.heapMB)
		res.detail("chunks=%d cmds=%d sim=%v host=%.2fs rate q1/med/q3=%.0f/%.0f/%.0f cmds/s lat samples/chunk>=%d (tail p%v supported)",
			measuredChunks, p.sum.cmds, p.sum.clock, float64(p.sum.hostNs)/1e9, p.sum.rateQ1, p.sum.hostCmdsPerS, p.sum.rateQ3, p.sum.latN, tailPercentile(p.sum.latN))
		return res, nil
	}

	plain := measureSim(w.setup(seed, nil, chunkDur), chunkDur, tracedChunks)
	tr := newTracer()
	withTrace := measureSim(w.setup(seed, tr, chunkDur), chunkDur, tracedChunks)
	res.absorb(plain.attempted+withTrace.attempted, plain.failed+withTrace.failed, append(plain.notes, withTrace.notes...))

	m := res.layer
	cmds := float64(plain.sum.cmds)
	simSec := plain.sum.clock.Seconds()
	simLayerMetrics(res, plain.sum, withTrace.sum, tr)
	m["lan.msgs_per_cmd"] = float64(plain.delta.msgs) / cmds
	m["lan.bytes_per_cmd"] = float64(plain.delta.bytes) / cmds
	m["lan.drops_per_kcmd"] = 1000 * float64(plain.delta.drops) / cmds
	m["lan.coord_cpu_busy_share"] = plain.delta.coordBusy.Seconds() / simSec
	m["lan.replica_cpu_busy_share"] = plain.delta.replicaBusy.Seconds() / simSec
	if plain.delta.probeInsts > 0 {
		m["ringpaxos.cmds_per_inst"] = float64(plain.delta.probeMsgs) / float64(plain.delta.probeInsts)
	}
	m["ringpaxos.order_lat_p50_us"] = median(plain.dep.orderP50)
	m["ringpaxos.live_log_peak"] = float64(plain.dep.liveLogPeak)
	m["core.oracle_violations"] = float64(plain.violations + withTrace.violations)

	m["multiring.merger_buffered_peak"] = float64(withTrace.dep.mergerPeak)
	if w.layer != nil {
		w.layer(m, &plain, &withTrace, tr)
	}
	if w.probes != nil {
		w.probes(m, &plain, seed, seconds)
	}
	m["sim.probe_ns_per_event"] = probeSimKernel(int(median(plain.dep.pending)), seed, seconds)
	if err := tr.write(outDir, name, "simulated", seed, withTrace.sum.cmds); err != nil {
		return nil, err
	}
	res.detail("untraced %d chunks: cmds=%d host=%.2fs; traced: cmds=%d host=%.2fs chains=%d",
		tracedChunks, plain.sum.cmds, float64(plain.sum.hostNs)/1e9, withTrace.sum.cmds, float64(withTrace.sum.hostNs)/1e9, len(tr.done))
	return res, nil
}
