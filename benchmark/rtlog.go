package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/ringpaxos"
	"repro/internal/wal"
)

const (
	rtValueBytes  = 1024
	rtOutstanding = 256 // phase B: callers waiting for their commit
	rtPhaseBChunk = 6   // phase B chunks
	rtPhaseAChunk = 4   // phase A chunks
	rtPhaseAShare = 0.4 // of -seconds; phase B takes the rest
	rtWait        = 10 * time.Second
	rtProposer    = repro.NodeID(1)
	rtProbe       = repro.NodeID(3)
	rtSatSample   = 8 // phase B keeps every 8th value's latency
	rtSettle      = 200 * time.Millisecond
)

var rtNodes = []repro.NodeID{1, 2, 3}

// token is the completion notice the probe node sends the load goroutine.
type token struct {
	id int64
	at time.Time // Deliver at the probe node
}

// rtRig is one realtime 3-node ReplicatedLog with the benchmark's Deliver
// hook. Load comes from one goroutine, the caller of propose and wait.
type rtRig struct {
	c       *repro.Cluster
	agent   func(repro.NodeID) *repro.URingAgent
	propose func(repro.Value)
	walDir  string
	tr      *tracer

	// done carries one token per value delivered at the probe node. Its
	// buffer covers every value that can be outstanding, so the node's loop
	// never blocks on the load goroutine.
	done chan token

	// Per node, written only by that node's loop, read after Stop: delivery
	// count and a hash chained over the (instance, id) sequence. seen is the
	// probe node's exactly-once ledger, caught marks a duplicate or unknown id.
	count  [3]atomic.Int64
	hash   [3]uint64
	seen   []uint64
	caught atomic.Int64

	next    int64 // last id proposed
	sentAt  [4096]time.Time
	failed  int64
	notes   []string
	stopped bool
}

func (r *rtRig) deliver(node repro.NodeID, inst int64, v repro.Value) {
	i := int(node) - 1
	r.hash[i] = (r.hash[i]^uint64(inst))*1099511628211 ^ uint64(v.ID)
	r.count[i].Add(1)
	if node != rtProbe {
		return
	}
	id := int64(v.ID)
	for int(id>>6) >= len(r.seen) {
		r.seen = append(r.seen, make([]uint64, 1<<12)...)
	}
	if bit := uint64(1) << (id & 63); id <= 0 || r.seen[id>>6]&bit != 0 {
		r.caught.Add(1)
	} else {
		r.seen[id>>6] |= bit
	}
	r.done <- token{id, time.Now()}
}

// newRTRig builds and starts the cluster. Untraced it is exactly
// repro.NewReplicatedLog with the zero LogConfig apart from Nodes, Deliver
// and (for rt-log-wal) WALDir: library defaults are what users get. Traced it
// wires the same ring by hand — NewReplicatedLog adds its agents to the
// cluster itself, so wrappers cannot be slipped under it.
func newRTRig(seed int64, withWAL bool, tr *tracer) (*rtRig, error) {
	r := &rtRig{c: repro.NewCluster(seed), tr: tr, done: make(chan token, 4*rtOutstanding)}
	if withWAL {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		r.walDir = dir
	}
	if tr == nil {
		log := repro.NewReplicatedLog(r.c, repro.LogConfig{Nodes: rtNodes, Deliver: r.deliver, WALDir: r.walDir})
		r.agent = log.Agent
		r.propose = func(v repro.Value) { log.Propose(rtProposer, v) }
	} else {
		ucfg := ringpaxos.UConfig{Ring: rtNodes, Learners: rtNodes}
		if withWAL {
			ucfg.Durability = ringpaxos.DurWAL
			if err := r.c.EnableWAL(r.walDir); err != nil {
				return nil, err
			}
		}
		agents := map[repro.NodeID]*repro.URingAgent{}
		for _, id := range rtNodes {
			id := id
			st := &stack{timeDisk: true}
			tr.nodes[id] = st
			a := &repro.URingAgent{Cfg: ucfg}
			if withWAL {
				a.Log = &wal.Log{}
			}
			a.Deliver = func(inst int64, v repro.Value) {
				st.enter(lyLoad)
				r.deliver(id, inst, v)
				st.exit()
			}
			agents[id] = a
			r.c.AddNode(id, tr.handlerOn(st, a, lyRingpaxos))
		}
		r.agent = func(id repro.NodeID) *repro.URingAgent { return agents[id] }
		proposer, node := agents[rtProposer], r.c.Node(rtProposer)
		// Work(0, fn) enqueues fn on the node's loop, which is what
		// ReplicatedLog.Propose does.
		r.propose = func(v repro.Value) { node.Work(0, func() { proposer.Propose(v) }) }
	}
	r.c.Start()
	return r, nil
}

// send proposes the next value from the proposer node.
func (r *rtRig) send() {
	r.next++
	r.sentAt[r.next&4095] = time.Now()
	r.tr.begin(r.next, time.Since(traceEpoch))
	r.propose(repro.Value{ID: repro.ValueID(r.next), Bytes: rtValueBytes})
}

// wait blocks until the probe node delivers a value and returns how long its
// caller waited for the commit. ok is false if nothing arrived in rtWait.
func (r *rtRig) wait() (lat time.Duration, ok bool) {
	var t token
	select {
	case t = <-r.done: // at saturation a token is usually waiting: no timer
	default:
		select {
		case t = <-r.done:
		case <-time.After(rtWait):
			r.failed++
			r.notes = append(r.notes, "no delivery at the probe node within 10s")
			return 0, false
		}
	}
	now := time.Now()
	if r.tr != nil {
		r.tr.mark(t.id, "delivered", t.at.Sub(traceEpoch))
		r.tr.end(t.id, "notified", now.Sub(traceEpoch))
	}
	return now.Sub(r.sentAt[t.id&4095]), true
}

// closedLoop keeps window values outstanding until the deadline (or, with a
// zero deadline, until count values completed), then waits for the rest. It
// appends every keep-th completed latency to lat and returns the completions.
func (r *rtRig) closedLoop(window int, deadline time.Time, count int64, keep int, lat *[]time.Duration) int64 {
	var done int64
	inflight := 0
	more := func() bool {
		if deadline.IsZero() {
			return done+int64(inflight) < count
		}
		return time.Now().Before(deadline)
	}
	for {
		for inflight < window && more() {
			r.send()
			inflight++
		}
		if inflight == 0 {
			return done
		}
		l, ok := r.wait()
		if !ok {
			return done
		}
		inflight--
		done++
		if lat != nil && done%int64(keep) == 0 {
			*lat = append(*lat, l)
		}
	}
}

// rtChunks runs n closed-loop chunks of dur each at the given window.
func (r *rtRig) rtChunks(window, n int, dur time.Duration, keep int) []chunk {
	var lat []time.Duration
	chunks := make([]chunk, 0, n)
	for i := 0; i < n; i++ {
		var ck chunk
		ck.hostNs, ck.mallocs = hostCost(func() {
			ck.cmds = r.closedLoop(window, time.Now().Add(dur), 0, keep, &lat)
		})
		ck.p50us, ck.p90us, ck.p99us, ck.latN = latCut(&lat)
		chunks = append(chunks, ck)
	}
	return chunks
}

// finish waits until every node delivered every proposed value, stops the
// cluster and checks the three sequences against each other.
func (r *rtRig) finish() {
	if r.stopped {
		return
	}
	r.stopped = true
	deadline := time.Now().Add(rtWait)
	for i := range r.count {
		for r.count[i].Load() < r.next && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond) // outside every measured window
		}
	}
	r.c.Stop()
	for i := range r.count {
		if n := r.count[i].Load(); n != r.next {
			r.failed += abs64(r.next - n)
			r.notes = append(r.notes, fmt.Sprintf("node %d delivered %d of %d proposed values", i+1, n, r.next))
		}
		if r.hash[i] != r.hash[0] {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("node %d delivered a different (instance, id) sequence than node 1", i+1))
		}
	}
	if n := r.caught.Load(); n != 0 {
		r.failed += n
		r.notes = append(r.notes, fmt.Sprintf("%d values delivered twice or never proposed", n))
	}
	if err := r.c.WALError(); err != nil {
		r.failed++
		r.notes = append(r.notes, "WAL: "+err.Error())
	}
	if r.walDir != "" {
		if err := os.RemoveAll(r.walDir); err != nil {
			r.notes = append(r.notes, "removing WAL directory: "+err.Error())
		}
	}
}

// rtWorkload is rt-log-mem or rt-log-wal.
type rtWorkload struct {
	withWAL bool
	// warmPerSecond sizes the warm-up, part of set-up: values committed at 64
	// outstanding, per unit of -seconds, before anything is measured
	// (goroutines parked, WAL files opened, batch pools filled).
	warmPerSecond float64
}

func (w rtWorkload) setup(seed int64, seconds float64, tr *tracer) (*rtRig, error) {
	r, err := newRTRig(seed, w.withWAL, tr)
	if err != nil {
		return nil, err
	}
	r.closedLoop(64, time.Time{}, int64(w.warmPerSecond*seconds)+1, 1, nil)
	return r, nil
}

// rtPass is one rig measured through both phases.
type rtPass struct {
	a, b   chunkSummary
	rig    *rtRig
	heapMB float64
	// read after the cluster stopped
	walAppends, walBytes int64
}

func (w rtWorkload) measure(r *rtRig, seconds float64) rtPass {
	runtime.GC()
	aDur := time.Duration(seconds * rtPhaseAShare / rtPhaseAChunk * float64(time.Second))
	bDur := time.Duration(seconds * (1 - rtPhaseAShare) / rtPhaseBChunk * float64(time.Second))
	p := rtPass{rig: r}
	// Phase A: one caller waiting for its commit — latency.
	p.a = summarize(r.rtChunks(1, rtPhaseAChunk, aDur, 1))
	// Phase B: rtOutstanding callers — saturated throughput.
	p.b = summarize(r.rtChunks(rtOutstanding, rtPhaseBChunk, bDur, rtSatSample))
	// Let the learner-version GC (50 ms rounds) trim behind the last commit
	// before reading what stays live.
	time.Sleep(rtSettle)
	p.heapMB = heapLiveMB()
	r.finish()
	for _, id := range rtNodes {
		a := r.agent(id)
		p.walAppends += a.Log.Appends()
		p.walBytes += a.Log.Bytes()
	}
	return p
}

func (w rtWorkload) run(name string, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	if !traced {
		var rig *rtRig
		var secs []float64
		for i := 0; i < setupRepeats; i++ {
			if rig != nil {
				rig.finish()
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if rig, err = w.setup(seed, seconds, nil); err != nil {
				return nil, err
			}
			secs = append(secs, time.Since(t0).Seconds())
		}
		p := w.measure(rig, seconds)
		res.absorb(rig.next, rig.failed, rig.notes)
		// Throughput and allocations are phase B's, latency phase A's.
		sum := p.b
		sum.latP50, sum.latP90 = p.a.latP50, p.a.latP90
		res.endToEnd(median(secs), sum, p.heapMB)
		res.detail("phase A: %d chunks cmds=%d lat samples/chunk>=%d (tail p%v supported); phase B: %d chunks cmds=%d rate q1/med/q3=%.0f/%.0f/%.0f cmds/s",
			rtPhaseAChunk, p.a.cmds, p.a.latN, tailPercentile(p.a.latN), rtPhaseBChunk, p.b.cmds, p.b.rateQ1, p.b.hostCmdsPerS, p.b.rateQ3)
		return res, nil
	}

	// Untraced and traced rigs each get a bit under half of -seconds.
	rig, err := w.setup(seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	plain := w.measure(rig, 0.45*seconds)
	tr := newTracer()
	trig, err := w.setup(seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	withTrace := w.measure(trig, 0.45*seconds)
	res.absorb(rig.next+trig.next, rig.failed+trig.failed, append(rig.notes, trig.notes...))

	m := res.layer
	m["lat_p99_us"] = plain.a.latP99
	m["cluster.sat_lat_p50_us"], m["cluster.sat_lat_p99_us"] = plain.b.latP50, plain.b.latP99
	m["wal.appends_per_cmd"] = float64(plain.walAppends) / float64(rig.next)
	m["wal.bytes_per_cmd"] = float64(plain.walBytes) / float64(rig.next)
	self, _ := tr.totals()
	var sends int64
	var waits []time.Duration
	for _, st := range tr.nodes {
		sends += st.sends
		waits = append(waits, st.diskWaits...)
	}
	tcmds := float64(trig.next)
	m["cluster.msgs_per_cmd"] = float64(sends) / tcmds
	m["cluster.send_ns_per_msg"] = float64(self[lySend]) / float64(sends)
	m["cluster.handler_self_ns_per_cmd"] = float64(self[lyRingpaxos]) / tcmds
	m["ringpaxos.handler_self_ns_per_cmd"] = m["cluster.handler_self_ns_per_cmd"]
	m["cluster.diskwrite_wait_us_p50"], _, _, _ = latCut(&waits)
	m["trace.overhead_share"] = (withTrace.b.hostNsPerCmd - plain.b.hostNsPerCmd) / plain.b.hostNsPerCmd
	if w.withWAL {
		m["wal.fsync_probe_us_p50"], err = probeFsync()
		if err != nil {
			return nil, err
		}
	}
	if err := tr.write(outDir, name, "host", seed, trig.next); err != nil {
		return nil, err
	}
	res.detail("untraced: phase A cmds=%d phase B cmds=%d; traced: phase A cmds=%d phase B cmds=%d chains=%d",
		plain.a.cmds, plain.b.cmds, withTrace.a.cmds, withTrace.b.cmds, len(tr.done))
	return res, nil
}

// probeFsync times 4 KB O_SYNC appends to a file beside the WAL files: about
// three of these are the disk floor under one rt-log-wal commit.
func probeFsync() (p50us float64, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(outDir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	sf, err := os.OpenFile(f.Name(), os.O_WRONLY|os.O_APPEND|os.O_SYNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer sf.Close()
	buf := make([]byte, 4096)
	var lat []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := sf.Write(buf); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	p50us, _, _, _ = latCut(&lat)
	return p50us, nil
}

var (
	rtLogMem = rtWorkload{warmPerSecond: 20_000}
	rtLogWAL = rtWorkload{withWAL: true, warmPerSecond: 200}
)
