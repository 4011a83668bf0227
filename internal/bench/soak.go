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
// -allocs / -check-budgets path reads, which is how CI asserts a hard
// HeapAlloc ceiling on the GC-enabled runs.

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/paxos"
	"repro/internal/proto"
)

// soakVariants are the two runs of every soak, in run order. The first
// exercises the on-by-default path (a zero GCInterval resolves to the
// protocol's default, 50 ms); the control opts out with the explicit -1.
var soakVariants = []variant{{name: "gc"}, {name: "nogc", edit: gcOff}}

var soakFamilies = []family{
	{
		id:     "soak.mring",
		title:  "M-Ring Paxos 10 s soak: live log records, GC on vs off",
		head:   "soak.mring — M-Ring Paxos, 20 Mbps of 1 KB values for 10 s",
		deploy: soakMRing, variants: soakVariants,
	},
	{
		id:     "soak.uring",
		title:  "U-Ring Paxos 10 s soak: live log records, GC on vs off",
		head:   "soak.uring — U-Ring Paxos (3 acceptors, 4-process ring), 20 Mbps of 1 KB values for 10 s",
		deploy: soakURing, variants: soakVariants,
	},
	{
		id:     "soak.paxos",
		title:  "basic Paxos 10 s soak: live log records, GC on vs off",
		head:   "soak.paxos — basic Paxos (3 acceptors, 2 learners, unicast), 10 Mbps of 512 B values for 10 s",
		deploy: soakPaxos, variants: soakVariants,
	},
	{
		id:     "soak.spaxos",
		title:  "S-Paxos 10 s soak: live log records, GC on vs off",
		head:   "soak.spaxos — S-Paxos (3 replicas), 10 Mbps of 512 B values for 10 s",
		deploy: faultSPaxos, variants: soakVariants,
	},
}

// soakMRing is the M-Ring deployment the Chapter 3 figures use (ring of
// 2) — default Retry included: the learner timer-chain multiplication
// that once forced a tamer Retry here is fixed (one persistent version
// chain per learner, see armLearnerTimers).
func soakMRing() deploySpec {
	d := faultMRing()
	d.mring.Ring = []proto.NodeID{0, 1}
	return d
}

func soakURing() deploySpec {
	d := faultURing()
	d.uring.RecycleBatches = true
	return d
}

// soakPaxos is faultPaxos's cluster in the unicast wiring with the
// default window.
func soakPaxos() deploySpec {
	d := faultPaxos()
	d.paxos = &paxos.Config{Coordinator: 0, RecycleBatches: true, Acceptors: d.paxos.Acceptors, Learners: d.paxos.Learners}
	return d
}

// gcOff disables the shared log garbage collection (and with it the batch
// recycling that depends on trimmed instances; M-Ring's recycling predates
// the shared subsystem and stays on).
func gcOff(d *deploySpec) {
	switch {
	case d.mring != nil:
		d.mring.GCInterval = -1
	case d.uring != nil:
		d.uring.GCInterval, d.uring.RecycleBatches = -1, false
	case d.paxos != nil:
		d.paxos.GCInterval, d.paxos.RecycleBatches = -1, false
	default:
		d.spaxos.GCInterval = -1
	}
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

// runSoak drives a soak family's deployment for soakDur once per variant,
// sampling every soakStep. Only the GC-enabled run feeds the heap side
// channel: the ceiling must assert on the bounded configuration, not on
// the deliberately leaky control.
func runSoak(w io.Writer, rec *DelivRecorder, f *family) {
	var series [][]soakSample
	for i, v := range f.variants {
		d := f.deploy()
		d.dep = rec.Deployment()
		if v.edit != nil {
			v.edit(&d)
		}
		rig := d.build()
		samples := make([]soakSample, 0, int(soakDur/soakStep))
		for t := soakStep; t <= soakDur; t += soakStep {
			rig.l.Run(soakStep)
			s := soakSample{live: rig.live(), delivered: rig.probe.DeliveredMsgs}
			samples = append(samples, s)
			if i == 0 {
				noteSoak(f.id, s.live)
			}
		}
		series = append(series, samples)
	}
	soakReport(w, f.head, series[0], series[1])
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
