// The event engine, and conservative-lookahead parallel simulation (PDES) on
// top of it.
//
// # Hot-path design
//
// There is one engine, LP: a clock, a slab of scheduled events and a heap
// over them. The sequential Simulator is an LP that never opens a window;
// a partitioned run is several LPs under one Par. The engine is
// allocation-free in steady state. Scheduled events live in a value-typed
// slab indexed by a free-list; the priority queue is a binary min-heap of
// 24-byte (time, rank, slab-index) entries popped with the bottom-up hole
// technique, which benchmarked ahead of both the pointer heap it replaced
// (2.2x) and a 4-ary layout on this workload. Ranks are 64-bit, so the only
// cap is 2^24 concurrently scheduled events per LP. Cancelling a timer marks
// its slab slot dead in O(1); dead entries are dropped when they reach the
// top of the heap, and a lazy compaction pass sweeps them out whenever they
// outnumber live events, so cancelled timers cost amortized O(1) and never
// accumulate.
//
// The heap order is (fireAt, rank). The rank is copied into the heap entry
// at push, so ordering a sequential run never leaves the heap array: the
// slab is consulted only when one of the two keys is provisional (below),
// which a run without windows never produces. Routing every same-instant
// tie through the slab instead measured 2-9 % slower end to end on the most
// kernel-bound benchmark workload (sim-abcast).
//
// # Ranks and windows
//
// Ranks reproduce one global scheduling order: a counter assigns each
// scheduling call its position in the sequential run. Calls made outside a
// window (the whole of a sequential run; handler Start and code between Run
// calls in a partitioned one) execute single-threaded and draw from the
// counter directly — that is the sequential (time, seq) order. Calls made
// inside a window are logged and ranked at the next barrier by
// ReplayWindow, which orders every call made anywhere in the cluster during
// the window by (caller instant, caller rank, call order) — precisely the
// order the sequential run would have made them in.
//
// Until the barrier ranks it, an in-window event carries a provisional rank:
// the provisional bit plus its log position. Provisional ranks compare above
// every exact rank — correct, because a window-scheduled event's true seq
// exceeds that of everything scheduled before the window — and within one LP
// they compare in log order, which is the LP's own call order. The barrier
// writes the exact rank into the event's slab slot (the heap entry keeps its
// provisional copy, which is what sends the comparison to the slab), and
// replacing a provisional rank with its exact seq never reorders a heap: the
// replacement is monotone.
//
// Par coordinates a set of LPs under conservative time windows. Every
// window, the floor is the minimum next-event time across LPs and every LP
// may execute all events strictly below floor+Horizon without any
// coordination: when the horizon is the minimum cross-LP communication
// latency, an event executing in the window can only cause effects at or
// beyond the window's end, so no LP can receive a message "from the past".
// Cross-LP messages accumulate in substrate-owned outboxes during the
// window and are applied — single-threaded, at their exact replay positions —
// by the Barrier callback between windows.
package sim

import (
	"math"
	"sync"
	"time"
)

// provisionalBit marks a rank as "assigned this window, not yet replayed";
// the low bits are the scheduling call's position in its LP's window log.
const provisionalBit = uint64(1) << 63

// maxSlot caps concurrently scheduled events per LP at 16M (slab indices are
// int32 with room to spare; the cap keeps a runaway model from eating the
// host); allocSlot panics past it.
const maxSlot = 1<<24 - 1

// entry is one heap element, ordered by (at, rank). rank is the value the
// event was pushed with; when it is provisional the authoritative rank is
// the slab's, which the barrier may have rewritten since.
type entry struct {
	at   time.Duration
	rank uint64
	idx  int32
}

// slot is one slab cell: the payload of a scheduled event plus bookkeeping.
type slot struct {
	fn   Event
	ev   TypedEvent
	rank uint64 // exact sequential seq, or provisionalBit|logIndex
	gen  uint64 // bumped on free; timers carry the gen they were issued with
	//          (64-bit so it cannot wrap and re-validate a stale Timer)
	dead bool  // cancelled but not yet swept out of the heap
	next int32 // free-list link, -1 terminated
}

// callRec records one scheduling call made during a window, in LP call
// order. callerRank is exact when the calling event was ranked at an earlier
// barrier (or injected), provisional when the caller was itself scheduled
// this window — then its low bits index this same log, and the referenced
// record is always earlier (an event is scheduled before it executes).
type callRec struct {
	callerAt   time.Duration
	callerRank uint64
	child      int32 // slab slot of the scheduled event; -(x+1) for the x-th external call
	childGen   uint64
}

// LP is the event engine: a self-contained event loop with its own clock,
// heap and slab. The sequential Simulator is one LP; a partitioned run gives
// each partition of the model its own (a logical process). During a window
// only the LP's own worker touches it; between windows only the coordinator
// does (Inject/NextAt/AdvanceTo/ReplayWindow). That alternation,
// synchronized by Par, is the entire concurrency contract — the LP itself
// has no locks.
type LP struct {
	now      time.Duration
	curRank  uint64 // rank of the event whose callback is executing
	inWin    bool   // inside RunBefore: log calls instead of ranking directly
	heap     []entry
	slab     []slot
	freeHead int32 // head of the slab free-list, -1 when empty
	nDead    int   // cancelled events still occupying heap entries
	nSteps   uint64
	dispatch Dispatcher

	seq   uint64    // this LP's own rank counter, used until SetSeqSource
	gseq  *uint64   // the rank counter in use (all LPs of one Par share one)
	log   []callRec // scheduling calls made this window, in call order
	nX    int32     // external (substrate) calls logged this window
	seqOf []uint64  // per-log-entry assigned seq, ReplayWindow scratch
}

// NewLP returns an empty logical process with its own rank counter; LPs run
// together under one Par must share a counter via SetSeqSource.
func NewLP() *LP {
	p := new(LP)
	p.init()
	return p
}

func (p *LP) init() {
	p.freeHead = -1
	p.gseq = &p.seq
}

// SetSeqSource shares the rank counter that makes ranks a single global
// sequence across LPs. Call once, before any scheduling.
func (p *LP) SetSeqSource(c *uint64) { p.gseq = c }

// SetDispatcher installs the typed-event dispatcher. Call once, before
// scheduling TypedEvents; closure events do not need one.
func (p *LP) SetDispatcher(d Dispatcher) { p.dispatch = d }

// Now returns the current virtual time: the instant of the last executed
// event, clamped up by AdvanceTo when a run reaches its deadline.
func (p *LP) Now() time.Duration { return p.now }

// Steps reports how many events have been executed so far.
func (p *LP) Steps() uint64 { return p.nSteps }

// Pending reports the number of scheduled events that have neither fired nor
// been cancelled.
func (p *LP) Pending() int { return len(p.heap) - p.nDead }

// Timer identifies a scheduled event so it can be cancelled. The zero Timer
// is valid and cancels nothing.
type Timer struct {
	p   *LP
	idx int32
	gen uint64
}

// Cancel prevents the timer's event from firing. Cancelling an already-fired
// or already-cancelled timer is a no-op: the slab slot's generation counter
// is bumped on every reuse, so a stale Timer can never cancel an unrelated
// event that happens to occupy the same slot.
func (t Timer) Cancel() {
	p := t.p
	if p == nil || int(t.idx) >= len(p.slab) {
		return
	}
	sl := &p.slab[t.idx]
	if sl.gen != t.gen || sl.dead {
		return
	}
	sl.dead = true
	sl.fn = nil
	sl.ev = TypedEvent{} // release references now, not at sweep time
	p.nDead++
	// Lazy compaction: once dead entries outnumber live ones (and are worth
	// the sweep), rebuild the heap without them. Each swept entry was paid
	// for by its own Cancel, so the cost is amortized O(1).
	if p.nDead > 64 && p.nDead*2 > len(p.heap) {
		p.compact()
	}
}

// allocSlot takes a slab cell from the free-list, growing the slab only when
// the list is empty (i.e. only while the live-event population is at a new
// high-water mark).
func (p *LP) allocSlot() int32 {
	if p.freeHead >= 0 {
		idx := p.freeHead
		p.freeHead = p.slab[idx].next
		return idx
	}
	if len(p.slab) > maxSlot {
		panic("sim: more than 2^24 concurrently scheduled events")
	}
	p.slab = append(p.slab, slot{})
	return int32(len(p.slab) - 1)
}

// freeSlot returns a cell to the free-list and invalidates outstanding
// Timers for it by bumping the generation. The caller has already cleared
// the payload (fn/ev), either on cancel or on fire.
func (p *LP) freeSlot(idx int32) {
	sl := &p.slab[idx]
	sl.gen++
	sl.dead = false
	sl.next = p.freeHead
	p.freeHead = idx
}

// schedule inserts a filled slot and returns its Timer. Outside a window the
// call is single-threaded and takes its rank from the counter — the
// sequential (time, seq) order; inside one it is ranked provisionally, to be
// ranked exactly by the barrier replay.
func (p *LP) schedule(at time.Duration, idx int32) Timer {
	if at < p.now {
		at = p.now
	}
	sl := &p.slab[idx]
	if p.inWin {
		sl.rank = provisionalBit | uint64(len(p.log))
		p.log = append(p.log, callRec{callerAt: p.now, callerRank: p.curRank, child: idx, childGen: sl.gen})
	} else {
		*p.gseq++
		sl.rank = *p.gseq
	}
	p.push(entry{at: at, rank: sl.rank, idx: idx})
	return Timer{p: p, idx: idx, gen: sl.gen}
}

// NoteXCall records a scheduling call the substrate performs on the event's
// behalf outside this LP (a deferred cross-partition record). Outside a
// window it returns the call's exact rank, to be carried on the record;
// inside one it logs the call at its program position and returns 0 — the
// rank is assigned by the barrier replay, which hands it to the record
// through the ReplayWindow callback.
func (p *LP) NoteXCall() uint64 {
	if !p.inWin {
		*p.gseq++
		return *p.gseq
	}
	p.nX++
	p.log = append(p.log, callRec{callerAt: p.now, callerRank: p.curRank, child: -p.nX})
	return 0
}

// At schedules fn to run at absolute virtual time at. Times in the past are
// clamped to the current instant.
func (p *LP) At(at time.Duration, fn Event) Timer {
	idx := p.allocSlot()
	p.slab[idx].fn = fn
	return p.schedule(at, idx)
}

// After schedules fn to run d from now. Negative delays run "now".
func (p *LP) After(d time.Duration, fn Event) Timer {
	return p.At(p.now+d, fn)
}

// AtEvent schedules a typed event at absolute virtual time at. It shares the
// (time, rank) order with At, and allocates nothing once the slab is warm.
func (p *LP) AtEvent(at time.Duration, ev TypedEvent) Timer {
	idx := p.allocSlot()
	p.slab[idx].ev = ev
	return p.schedule(at, idx)
}

// AfterEvent schedules a typed event d from now.
func (p *LP) AfterEvent(d time.Duration, ev TypedEvent) Timer {
	return p.AtEvent(p.now+d, ev)
}

// Inject schedules a typed event sent by another LP, with the exact rank the
// barrier replay assigned its scheduling call. Coordinator-only: call
// between windows. at must be at or beyond the window bound, which
// conservative lookahead guarantees (arrival = send + latency >= bound).
func (p *LP) Inject(at time.Duration, rank uint64, ev TypedEvent) {
	idx := p.allocSlot()
	sl := &p.slab[idx]
	sl.ev = ev
	sl.rank = rank
	if at < p.now {
		at = p.now
	}
	p.push(entry{at: at, rank: rank, idx: idx})
}

// NextAt reports the firing time of the earliest pending event, first
// dropping cancelled entries that reached the top of the heap — so after it
// returns true, heap[0] is that event. Coordinator-only between windows.
func (p *LP) NextAt() (time.Duration, bool) {
	for len(p.heap) > 0 {
		e := p.heap[0]
		if !p.slab[e.idx].dead {
			return e.at, true
		}
		p.popRoot()
		p.nDead--
		p.freeSlot(e.idx)
	}
	return 0, false
}

// maxTime is the step limit that admits every event.
const maxTime = time.Duration(math.MaxInt64)

// step executes the earliest pending event if it fires at or before limit,
// advancing the clock to its instant, and reports whether one ran. Cancelled
// events reaching the top are discarded without touching the clock.
func (p *LP) step(limit time.Duration) bool {
	if at, ok := p.NextAt(); !ok || at > limit {
		return false
	}
	e := p.heap[0]
	p.popRoot()
	sl := &p.slab[e.idx]
	p.now = e.at
	p.curRank = sl.rank
	p.nSteps++
	// Free before running: the callback may schedule new events into this
	// very slot, and the generation bump makes cancel-after-fire on the old
	// Timer a guaranteed no-op. A slot holds either fn or ev, never both, so
	// only the populated payload needs clearing.
	if fn := sl.fn; fn != nil {
		sl.fn = nil
		p.freeSlot(e.idx)
		fn()
	} else {
		ev := sl.ev
		sl.ev = TypedEvent{}
		p.freeSlot(e.idx)
		p.dispatch(ev)
	}
	return true
}

// RunBefore executes, as one window, every event with at < bound and reports
// how many ran. The clock is NOT advanced to bound: it stays at the last
// executed event, so events scheduled by callbacks keep sorting by true
// scheduling time.
func (p *LP) RunBefore(bound time.Duration) uint64 {
	before := p.nSteps
	p.inWin = true
	for p.step(bound - 1) {
	}
	p.inWin = false
	return p.nSteps - before
}

// AdvanceTo clamps the clock up to t (never backward): the final clock
// advance of a run that reached its deadline.
func (p *LP) AdvanceTo(t time.Duration) {
	if p.now < t {
		p.now = t
	}
}

// ReplayWindow is the heart of exact-order partitioning. Between windows,
// single-threaded, it replays every scheduling call the cluster made during
// the window in the order a sequential run would have made them —
// by (caller instant, caller rank, per-caller call order) — drawing each
// call's rank from the shared counter. Local calls have the rank written
// into their event's slab slot (monotone, so heap invariants survive);
// external calls are handed to applyX with their rank, at their exact
// position in the global order, so the substrate applies cross-partition
// records with the same relative order and resource arithmetic as the
// sequential run.
//
// Resolution within one instant: a call whose caller was itself scheduled at
// that instant must wait until the caller's own scheduling call is ranked —
// the dependency always points earlier in the same LP's log, so a minimal
// resolvable call always exists. Instant groups are tiny (a handful of
// calls), so the quadratic scan beats a heap.
func ReplayWindow(lps []*LP, applyX func(lp, x int, rank uint64)) {
	n := len(lps)
	cur := make([]int, n)
	type item struct {
		lp, j int
	}
	var group []item
	for _, p := range lps {
		if cap(p.seqOf) < len(p.log) {
			p.seqOf = make([]uint64, len(p.log))
		} else {
			p.seqOf = p.seqOf[:len(p.log)]
			for i := range p.seqOf {
				p.seqOf[i] = 0
			}
		}
	}
	for {
		var t time.Duration
		found := false
		for i, p := range lps {
			if cur[i] < len(p.log) {
				if at := p.log[cur[i]].callerAt; !found || at < t {
					t, found = at, true
				}
			}
		}
		if !found {
			break
		}
		group = group[:0]
		for i, p := range lps {
			j := cur[i]
			for j < len(p.log) && p.log[j].callerAt == t {
				group = append(group, item{lp: i, j: j})
				j++
			}
			cur[i] = j
		}
		for remaining := len(group); remaining > 0; remaining-- {
			best := -1
			var bestRank uint64
			var bestJ int
			for gi := range group {
				it := group[gi]
				if it.lp < 0 {
					continue
				}
				p := lps[it.lp]
				cr := p.log[it.j].callerRank
				if cr&provisionalBit != 0 {
					// Caller scheduled this window: wait for its own call's
					// rank (same LP, earlier log index, same instant group).
					s := p.seqOf[cr&^provisionalBit]
					if s == 0 {
						continue
					}
					cr = s
				}
				// Ranks are unique across events; equal caller ranks mean the
				// same caller, ordered by its own call order (= log order).
				if best < 0 || cr < bestRank || (cr == bestRank && it.j < bestJ) {
					best, bestRank, bestJ = gi, cr, it.j
				}
			}
			if best < 0 {
				panic("sim: unresolvable scheduling-call order in window replay")
			}
			it := group[best]
			group[best].lp = -1
			p := lps[it.lp]
			rec := &p.log[it.j]
			*p.gseq++
			s := *p.gseq
			p.seqOf[it.j] = s
			if rec.child >= 0 {
				sl := &p.slab[rec.child]
				if sl.gen == rec.childGen {
					sl.rank = s
				}
			} else {
				applyX(it.lp, int(-rec.child)-1, s)
			}
		}
	}
	for _, p := range lps {
		p.log = p.log[:0]
		p.nX = 0
	}
}

// less orders heap entries by (fire time, rank). Ranks are unique — exact
// ranks globally, provisional ranks within the LP and window — so the order
// is total. Two exact keys compare in place; a provisional key may have been
// ranked by a barrier since it was pushed, so then the slab decides.
func (p *LP) less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if (a.rank|b.rank)&provisionalBit == 0 {
		return a.rank < b.rank
	}
	return p.slab[a.idx].rank < p.slab[b.idx].rank
}

// push appends e and restores the heap invariant.
func (p *LP) push(e entry) {
	h := append(p.heap, e)
	i := len(h) - 1
	for i > 0 {
		pa := (i - 1) >> 1
		if !p.less(e, h[pa]) {
			break
		}
		h[i] = h[pa]
		i = pa
	}
	h[i] = e
	p.heap = h
}

// popRoot removes the minimum entry and restores the heap invariant using
// the bottom-up technique: pull the min-child path up into the root hole
// without comparing against the displaced last leaf (it almost always
// belongs back at the bottom anyway), then sift the leaf up the same path.
// This saves one comparison per level on the common path.
func (p *LP) popRoot() {
	h := p.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	p.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && p.less(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		pa := (i - 1) >> 1
		if !p.less(last, h[pa]) {
			break
		}
		h[i] = h[pa]
		i = pa
	}
	h[i] = last
}

// siftDown moves h[i] toward the leaves until the heap invariant holds.
func (p *LP) siftDown(i int) {
	h := p.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && p.less(h[c+1], h[c]) {
			c++
		}
		if !p.less(h[c], e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// compact rebuilds the heap without dead entries, freeing their slots. The
// heap property only depends on the (at, rank) keys, which are untouched, so
// re-heapifying the filtered array preserves the exact pop order.
func (p *LP) compact() {
	live := p.heap[:0]
	for _, e := range p.heap {
		if p.slab[e.idx].dead {
			p.freeSlot(e.idx)
		} else {
			live = append(live, e)
		}
	}
	p.heap = live
	p.nDead = 0
	for i := (len(live) - 2) >> 1; i >= 0; i-- {
		p.siftDown(i)
	}
}

// Par runs a set of LPs under conservative time-window synchronization.
//
// Each RunUntil call spawns one worker goroutine per LP and joins them all
// before returning, so no goroutines outlive the call and callers may touch
// model state freely between calls. Within the call the schedule is:
//
//	barrier -> floor = min next-event -> every LP runs events < floor+Horizon
//	(in parallel) -> repeat
//
// The Barrier callback (single-threaded) replays the previous window's
// scheduling calls and applies cross-LP messages into the destination LPs'
// heaps; because every cross-LP effect is at least Horizon after its cause,
// injected events always land at or beyond the window that produced them.
type Par struct {
	LPs     []*LP
	Horizon time.Duration
	// Barrier applies cross-LP traffic between windows; may be nil.
	Barrier func()

	// Window statistics, maintained by RunUntil: Windows counts
	// synchronization windows, ActiveSum accumulates the number of LPs that
	// executed at least one event per window, EventSum the events executed.
	// ActiveSum/Windows is the mean concurrency the partitioning exposes —
	// the speedup bound a multi-core host could realize.
	Windows   uint64
	ActiveSum uint64
	EventSum  uint64
}

// Overlap returns the mean number of LPs active per synchronization window
// (0 when no window has run).
func (p *Par) Overlap() float64 {
	if p.Windows == 0 {
		return 0
	}
	return float64(p.ActiveSum) / float64(p.Windows)
}

// minNext returns the earliest pending event time across LPs.
func (p *Par) minNext() (time.Duration, bool) {
	var floor time.Duration
	ok := false
	for _, lp := range p.LPs {
		if at, live := lp.NextAt(); live && (!ok || at < floor) {
			floor, ok = at, true
		}
	}
	return floor, ok
}

// RunUntil executes all events with timestamps <= deadline across every LP,
// then advances every LP clock to deadline. It is the partitioned
// equivalent of Simulator.RunUntil.
func (p *Par) RunUntil(deadline time.Duration) {
	if p.Horizon <= 0 {
		// A zero horizon yields empty windows and an infinite loop; the
		// partitioning layer must fall back to sequential execution instead.
		panic("sim: Par requires a positive Horizon")
	}
	n := len(p.LPs)
	starts := make([]chan time.Duration, n)
	counts := make([]uint64, n)
	var step, join sync.WaitGroup
	for i := range starts {
		starts[i] = make(chan time.Duration, 1)
	}
	for i := 0; i < n; i++ {
		join.Add(1)
		go func(i int) {
			defer join.Done()
			lp := p.LPs[i]
			for bound := range starts[i] {
				counts[i] = lp.RunBefore(bound)
				step.Done()
			}
		}(i)
	}
	for {
		// Run the barrier first: the previous window's scheduling calls must
		// be replayed and its cross-LP sends injected before the floor is
		// measured (and before the final floor > deadline exit, so
		// post-deadline traffic stays queued for the next RunUntil call,
		// exactly like a sequential run).
		if p.Barrier != nil {
			p.Barrier()
		}
		floor, ok := p.minNext()
		if !ok || floor > deadline {
			break
		}
		bound := floor + p.Horizon
		// The final nanosecond: sequential RunUntil executes events AT the
		// deadline, and RunBefore is strict, so the last window's bound is
		// one past it.
		if lim := deadline + 1; bound > lim {
			bound = lim
		}
		step.Add(n)
		for i := range starts {
			starts[i] <- bound
		}
		step.Wait()
		p.Windows++
		for _, c := range counts {
			p.EventSum += c
			if c > 0 {
				p.ActiveSum++
			}
		}
	}
	for i := range starts {
		close(starts[i])
	}
	join.Wait()
	for _, lp := range p.LPs {
		lp.AdvanceTo(deadline)
	}
}
