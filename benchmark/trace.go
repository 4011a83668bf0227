package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/proto"
	"repro/internal/smr"
)

// A layer is one module of the repository as the tracer can tell it apart
// from outside: every span the benchmark's wrappers record belongs to one.
type layer int

const (
	// lyDispatch is LAN.Run minus every handler it called: the sim kernel's
	// heap and lan's typed-event dispatch. They cannot be split from outside.
	lyDispatch layer = iota
	// lySend is time inside Env.Send/SendUDP/Multicast called by handlers,
	// lyEnv inside the other Env calls (timers, Work, DiskWrite): lan on
	// sim-*, the root package's Cluster on rt-*.
	lySend
	lyEnv
	// lyRingpaxos is the ordering agents' Start/Receive/timer callbacks. On
	// multi-ring nodes it includes multiring.Node's demultiplexing and Pacer.
	lyRingpaxos
	// lyMultiring is multiring.Merger (DeliverBatch → Push → merged Deliver).
	lyMultiring
	// lySMR is smr.Replica's delivery path, lyExec the smr.Service under it.
	lySMR
	lyExec
	// lyPSMR is psmr.Replica's execution engine.
	lyPSMR
	// lyLoad is the load generators and their completion hooks: smr/psmr
	// clients, client.Session, the abcast pump, the rt Deliver callback.
	lyLoad
	nLayers
)

var layerNames = [nLayers]string{
	"sim+lan.dispatch", "env.send", "env.other", "ringpaxos", "multiring.merger", "smr.replica", "smr.service", "psmr.replica", "load",
}

var traceEpoch = time.Now()

func nanotime() int64 { return int64(time.Since(traceEpoch)) }

type frame struct {
	ly    layer
	start int64
	child int64 // time covered by child spans
}

// stack aggregates spans of one thread of control (the simulator, or one
// realtime node's loop) into per-layer self time — a span's duration minus
// what its child spans cover — and span counts. It is not safe for
// concurrent use; realtime nodes get one each.
type stack struct {
	frames []frame
	self   [nLayers]int64
	calls  [nLayers]int64
	// sends counts Send/SendUDP/Multicast calls. diskWaits, kept on realtime
	// nodes only, is the delay from each DiskWrite call to the start of its
	// completion: queue wait on the node's loop plus the synchronous append.
	sends     int64
	timeDisk  bool
	diskWaits []time.Duration
}

func (s *stack) enter(ly layer) {
	s.frames = append(s.frames, frame{ly: ly, start: nanotime()})
}

func (s *stack) exit() {
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	d := nanotime() - f.start
	s.self[f.ly] += d - f.child
	s.calls[f.ly]++
	if n := len(s.frames); n > 0 {
		s.frames[n-1].child += d
	}
}

// stage is one point of a sampled command's chain, in the workload's clock.
type stage struct {
	Name string  `json:"stage"`
	AtUs float64 `json:"at_us"`
}

type chain struct {
	Key    int64   `json:"key"`
	Stages []stage `json:"stages"`
}

// chainEvery is the command sampling rate of the traced pass.
const chainEvery = 1000

// tracer owns the traced pass's state. The simulated workloads use main;
// realtime workloads add one stack per node (each touched only by that node's
// goroutine) and keep command chains on the load goroutine.
type tracer struct {
	main   stack
	nodes  map[proto.NodeID]*stack
	seen   int64
	active map[int64]*chain
	done   []*chain
}

func newTracer() *tracer {
	return &tracer{nodes: map[proto.NodeID]*stack{}, active: map[int64]*chain{}}
}

// begin starts a chain for one command in every chainEvery.
func (t *tracer) begin(key int64, now time.Duration) {
	if t == nil {
		return
	}
	t.seen++
	if t.seen%chainEvery != 1 {
		return
	}
	t.active[key] = &chain{Key: key, Stages: []stage{{"issued", us(now)}}}
}

// mark appends a stage to key's chain if that command was sampled.
func (t *tracer) mark(key int64, name string, now time.Duration) {
	if t == nil {
		return
	}
	if c := t.active[key]; c != nil {
		c.Stages = append(c.Stages, stage{name, us(now)})
	}
}

// end appends the last stage and retires the chain.
func (t *tracer) end(key int64, name string, now time.Duration) {
	if t == nil {
		return
	}
	if c := t.active[key]; c != nil {
		c.Stages = append(c.Stages, stage{name, us(now)})
		t.done = append(t.done, c)
		delete(t.active, key)
	}
}

// stageGap returns the median gap, in microseconds, between two named stages
// over the finished chains that have both.
func (t *tracer) stageGap(from, to string) (float64, int) {
	var gaps []float64
	for _, c := range t.done {
		a, b := -1.0, -1.0
		for _, s := range c.Stages {
			if s.Name == from && a < 0 {
				a = s.AtUs
			}
			if s.Name == to && b < 0 {
				b = s.AtUs
			}
		}
		if a >= 0 && b >= 0 {
			gaps = append(gaps, b-a)
		}
	}
	return median(gaps), len(gaps)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// totals sums every stack's per-layer self time and span counts.
func (t *tracer) totals() (self, calls [nLayers]int64) {
	add := func(s *stack) {
		for i := range s.self {
			self[i] += s.self[i]
			calls[i] += s.calls[i]
		}
	}
	add(&t.main)
	for _, s := range t.nodes {
		add(s)
	}
	return self, calls
}

// write stores the aggregated spans and the sampled chains as
// benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload, clock string, seed int64, cmds int64) error {
	type layerRow struct {
		Layer  string `json:"layer"`
		SelfNs int64  `json:"self_ns"`
		Spans  int64  `json:"spans"`
	}
	self, calls := t.totals()
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Clock    string     `json:"chain_clock"`
		Commands int64      `json:"commands"`
		Layers   []layerRow `json:"layers"`
		Chains   []*chain   `json:"chains"`
	}{Workload: workload, Seed: seed, Clock: clock, Commands: cmds, Chains: t.done}
	for i := range self {
		doc.Layers = append(doc.Layers, layerRow{layerNames[i], self[i], calls[i]})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// handler wraps h so that its callbacks are recorded as spans of layer ly on
// the simulator's stack. A nil tracer returns h itself: the untraced pass runs
// the program's own values.
func (t *tracer) handler(h proto.Handler, ly layer) proto.Handler {
	if t == nil {
		return h
	}
	return t.handlerOn(&t.main, h, ly)
}

// handlerOn is handler for a given stack: a realtime node has its own.
func (t *tracer) handlerOn(st *stack, h proto.Handler, ly layer) *tHandler {
	return &tHandler{inner: h, env: tEnv{st: st, ly: ly}}
}

// unwrap returns the handler a tracer wrapped, or h.
func unwrap(h proto.Handler) proto.Handler {
	if th, ok := h.(*tHandler); ok {
		return th.inner
	}
	return h
}

// tHandler times a proto.Handler and hands it a timing Env.
type tHandler struct {
	inner proto.Handler
	env   tEnv
}

func (h *tHandler) Start(env proto.Env) {
	h.env.Env = env
	h.env.st.enter(h.env.ly)
	h.inner.Start(&h.env)
	h.env.st.exit()
}

func (h *tHandler) Receive(from proto.NodeID, m proto.Message) {
	h.env.st.enter(h.env.ly)
	h.inner.Receive(from, m)
	h.env.st.exit()
}

// LoseVolatile forwards proto.VolatileLoser when the wrapped handler models
// it, so a fault.Lose restart costs the same state with or without tracing.
func (h *tHandler) LoseVolatile() {
	if vl, ok := h.inner.(proto.VolatileLoser); ok {
		h.env.st.enter(h.env.ly)
		vl.LoseVolatile()
		h.env.st.exit()
	}
}

// tEnv times every call a handler makes into its environment as an lyEnv
// span, and re-enters the handler's layer when a callback it scheduled fires.
// It forwards every optional Env interface through the proto helpers, which
// fall back exactly as they would on the bare environment, so the handler
// takes the same code paths as untraced (multiring.ringEnv does the same).
type tEnv struct {
	proto.Env
	st *stack
	ly layer
	// onSend, if set, observes Send calls (the replicas' replies mark a
	// sampled command "executed").
	onSend func(to proto.NodeID, m proto.Message)
}

var (
	_ proto.FreeTimerEnv = (*tEnv)(nil)
	_ proto.FreeWorkEnv  = (*tEnv)(nil)
	_ proto.MultiCore    = (*tEnv)(nil)
	_ proto.GroupSizer   = (*tEnv)(nil)
	_ proto.Downer       = (*tEnv)(nil)
)

func (e *tEnv) cb(fn func()) func() {
	return func() {
		e.st.enter(e.ly)
		fn()
		e.st.exit()
	}
}

func (e *tEnv) cbArg(fn func(int64)) func(int64) {
	return func(a int64) {
		e.st.enter(e.ly)
		fn(a)
		e.st.exit()
	}
}

func (e *tEnv) Send(to proto.NodeID, m proto.Message) {
	if e.onSend != nil {
		e.onSend(to, m)
	}
	e.st.enter(lySend)
	e.st.sends++
	e.Env.Send(to, m)
	e.st.exit()
}

func (e *tEnv) SendUDP(to proto.NodeID, m proto.Message) {
	e.st.enter(lySend)
	e.st.sends++
	e.Env.SendUDP(to, m)
	e.st.exit()
}

func (e *tEnv) Multicast(g proto.GroupID, m proto.Message) {
	e.st.enter(lySend)
	e.st.sends++
	e.Env.Multicast(g, m)
	e.st.exit()
}

func (e *tEnv) After(d time.Duration, fn func()) proto.Timer {
	e.st.enter(lyEnv)
	t := e.Env.After(d, e.cb(fn))
	e.st.exit()
	return t
}

func (e *tEnv) Work(d time.Duration, fn func()) {
	e.st.enter(lyEnv)
	e.Env.Work(d, e.cb(fn))
	e.st.exit()
}

func (e *tEnv) DiskWrite(size int, fn func()) {
	e.st.enter(lyEnv)
	done := e.cb(fn)
	if e.st.timeDisk {
		t0 := nanotime()
		e.Env.DiskWrite(size, func() {
			e.st.diskWaits = append(e.st.diskWaits, time.Duration(nanotime()-t0))
			done()
		})
	} else {
		e.Env.DiskWrite(size, done)
	}
	e.st.exit()
}

func (e *tEnv) AfterFree(d time.Duration, fn func()) {
	e.st.enter(lyEnv)
	proto.AfterFree(e.Env, d, e.cb(fn))
	e.st.exit()
}

func (e *tEnv) AfterFreeArg(d time.Duration, fn func(int64), arg int64) {
	e.st.enter(lyEnv)
	proto.AfterFreeArg(e.Env, d, e.cbArg(fn), arg)
	e.st.exit()
}

func (e *tEnv) WorkArg(d time.Duration, fn func(int64), arg int64) {
	e.st.enter(lyEnv)
	proto.WorkArg(e.Env, d, e.cbArg(fn), arg)
	e.st.exit()
}

func (e *tEnv) WorkOn(core int, d time.Duration, fn func()) {
	e.st.enter(lyEnv)
	proto.WorkOn(e.Env, core, d, e.cb(fn))
	e.st.exit()
}

func (e *tEnv) GroupSize(g proto.GroupID) int { return proto.GroupSizeOf(e.Env, g) }

func (e *tEnv) Down() bool { return proto.EnvDown(e.Env) }

// tService times an smr.Service as lyExec spans. It forwards smr.Applier so
// the replica keeps its undo-free fast path.
type tService struct {
	inner smr.Service
	st    *stack
}

var _ smr.Applier = (*tService)(nil)

func (s *tService) Execute(c smr.Command) (smr.Reply, smr.Undo) {
	s.st.enter(lyExec)
	r, u := s.inner.Execute(c)
	s.st.exit()
	return r, u
}

func (s *tService) Apply(c smr.Command) smr.Reply {
	s.st.enter(lyExec)
	var r smr.Reply
	if a, ok := s.inner.(smr.Applier); ok {
		r = a.Apply(c)
	} else {
		r, _ = s.inner.Execute(c)
	}
	s.st.exit()
	return r
}

func (s *tService) Cost(c smr.Command, r smr.Reply) time.Duration { return s.inner.Cost(c, r) }
