package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/proto"
)

// stubEnv is the part of proto.Env the batcher and the tail use: a clock
// and the allocation-free timer, which it records instead of scheduling.
type stubEnv struct {
	proto.Env
	now    time.Duration
	timers []func()
}

func (e *stubEnv) Now() time.Duration                   { return e.now }
func (e *stubEnv) AfterFree(_ time.Duration, fn func()) { e.timers = append(e.timers, fn) }
func (e *stubEnv) AfterFreeArg(time.Duration, func(int64), int64) {
	panic("unused")
}

// fire runs and forgets every timer recorded so far, keeping the slice's
// array so a warm stub allocates nothing.
func (e *stubEnv) fire() {
	n := len(e.timers)
	for i := 0; i < n; i++ {
		e.timers[i]()
	}
	e.timers = e.timers[:copy(e.timers, e.timers[n:])]
}

// stage returns a batcher holding one value per size, ids 1..n, with the
// given partition masks (nil: all zero).
func stage(sizes []int, masks []uint64) *Batcher {
	b := &Batcher{}
	for i, sz := range sizes {
		v := Value{ID: ValueID(i + 1), Bytes: sz}
		if masks != nil {
			v.PartMask = masks[i]
		}
		b.Stage(v)
	}
	return b
}

func ids(vals []Value) []ValueID {
	out := make([]ValueID, len(vals))
	for i, v := range vals {
		out[i] = v.ID
	}
	return out
}

func TestBatcherCut(t *testing.T) {
	cases := []struct {
		name     string
		sizes    []int
		maxBytes int
		want     []ValueID
	}{
		{"stops at the first value that reaches maxBytes", []int{100, 100, 100}, 150, []ValueID{1, 2}},
		{"exactly at the threshold", []int{100, 100, 100}, 100, []ValueID{1}},
		{"one oversized value is still a batch", []int{500, 100}, 1, []ValueID{1}},
		{"short of the threshold takes everything", []int{10, 10, 10}, 1000, []ValueID{1, 2, 3}},
		{"no threshold takes everything", []int{10, 10, 10}, math.MaxInt, []ValueID{1, 2, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := stage(c.sizes, nil)
			got := b.Cut(nil, false, c.maxBytes)
			if !slices.Equal(ids(got.Vals), c.want) {
				t.Fatalf("cut %v, want %v", ids(got.Vals), c.want)
			}
			if b.Len() != len(c.sizes)-len(c.want) {
				t.Errorf("%d values left, want %d", b.Len(), len(c.sizes)-len(c.want))
			}
			left := 0
			for _, sz := range c.sizes[len(c.want):] {
				left += sz
			}
			if b.bytes != left {
				t.Errorf("staged byte count %d, want %d", b.bytes, left)
			}
			if b.Len() > 0 && b.Cut(nil, false, math.MaxInt).Vals[0].ID != c.want[len(c.want)-1]+1 {
				t.Error("the next cut does not start where this one stopped")
			}
		})
	}
}

func TestBatcherCutMasked(t *testing.T) {
	cases := []struct {
		name     string
		masks    []uint64
		maxBytes int
		want     []ValueID
		wantMask uint64
		left     []ValueID
	}{
		{"only the head's mask", []uint64{1, 2, 1, 2, 1}, 1000, []ValueID{1, 3, 5}, 1, []ValueID{2, 4}},
		{"threshold applies within the mask", []uint64{1, 2, 1, 2, 1}, 150, []ValueID{1, 3}, 1, []ValueID{2, 4, 5}},
		{"unpartitioned is a plain prefix cut", []uint64{0, 0, 0}, 150, []ValueID{1, 2}, 0, []ValueID{3}},
		{"head's mask, not the commonest", []uint64{4, 2, 2, 2}, 1000, []ValueID{1}, 4, []ValueID{2, 3, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sizes := make([]int, len(c.masks))
			for i := range sizes {
				sizes[i] = 100
			}
			b := stage(sizes, c.masks)
			got, mask := b.CutMasked(nil, false, c.maxBytes)
			if !slices.Equal(ids(got.Vals), c.want) || mask != c.wantMask {
				t.Fatalf("cut %v mask %d, want %v mask %d", ids(got.Vals), mask, c.want, c.wantMask)
			}
			var left []ValueID
			for i := 0; i < b.Len(); i++ {
				left = append(left, b.slab.At(i).ID)
			}
			if !slices.Equal(left, c.left) {
				t.Fatalf("left %v, want %v in staging order", left, c.left)
			}
			if b.bytes != 100*len(c.left) {
				t.Errorf("staged byte count %d, want %d", b.bytes, 100*len(c.left))
			}
		})
	}
}

// TestBatcherReleasesCutPayloads is the regression test for M-Ring's old
// staging compaction (rest := pending[:0], and pending = pending[:0] on a
// reset), which left cut and dropped values in the abandoned tail of the
// backing array: their payloads stayed reachable until overwritten.
func TestBatcherReleasesCutPayloads(t *testing.T) {
	stale := func(b *Batcher) int {
		n := 0
		buf := b.slab.buf[:cap(b.slab.buf)]
		for i := range buf {
			live := i >= b.slab.head && i < len(b.slab.buf)
			if !live && buf[i].Payload != nil {
				n++
			}
		}
		return n
	}
	fill := func() *Batcher {
		b := &Batcher{}
		for i := 0; i < 8; i++ {
			b.Stage(Value{ID: ValueID(i), Bytes: 100, Payload: new(int), PartMask: uint64(1 + i%2)})
		}
		return b
	}
	b := fill()
	b.CutMasked(nil, false, 1000)
	if b.Len() != 4 || stale(b) != 0 {
		t.Fatalf("after CutMasked: %d staged, %d stale payloads in the backing array", b.Len(), stale(b))
	}
	b = fill()
	b.Cut(nil, false, 250)
	if b.Len() != 5 || stale(b) != 0 {
		t.Fatalf("after Cut: %d staged, %d stale payloads in the backing array", b.Len(), stale(b))
	}
	b.Reset()
	if b.Len() != 0 || b.bytes != 0 || stale(b) != 0 {
		t.Fatalf("after Reset: %d staged, %d bytes, %d stale payloads", b.Len(), b.bytes, stale(b))
	}
}

func TestBatcherAddArmsOnceAndReportsFull(t *testing.T) {
	env := &stubEnv{}
	flushes := 0
	var b Batcher
	b.Init(env, time.Millisecond, func() { flushes++ })
	steps := []struct {
		bytes      int
		wantFull   bool
		wantTimers int
	}{
		{400, false, 1}, // first value arms
		{400, false, 1}, // armed already
		{199, false, 1}, // 999 staged: one short
		{1, true, 1},    // exactly the threshold
		{1, true, 1},    // stays full until the caller cuts
	}
	for i, s := range steps {
		if full := b.Add(Value{Bytes: s.bytes}, 1000); full != s.wantFull {
			t.Fatalf("step %d: full = %v, want %v", i, full, s.wantFull)
		}
		if len(env.timers) != s.wantTimers {
			t.Fatalf("step %d: %d timers scheduled, want %d", i, len(env.timers), s.wantTimers)
		}
	}
	b.Cut(nil, false, 1000)
	env.fire()
	if flushes != 1 {
		t.Fatalf("the timer flushed %d times, want 1", flushes)
	}
	if b.Add(Value{Bytes: 1}, 1000) || len(env.timers) != 1 {
		t.Fatalf("after the timer fired the next Add must arm again (timers %d)", len(env.timers))
	}
}

func TestBatcherResetThenAddRearms(t *testing.T) {
	cases := []struct {
		name         string
		armed, fired bool
	}{
		{"no flush pending", false, false},
		// The timer of a crashed node still fires; it finds nothing staged.
		{"pending flush fires into the empty stage", true, true},
		// armed keeps meaning "a flush is coming": no second timer.
		{"pending flush still in flight", true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &stubEnv{}
			flushed := -1
			var b Batcher
			b.Init(env, time.Millisecond, func() { flushed = b.Len() })
			if c.armed {
				b.Add(Value{Bytes: 900}, 1000)
			} else {
				b.Stage(Value{Bytes: 900})
			}
			b.Reset()
			if c.fired {
				env.fire()
			}
			if b.Add(Value{Bytes: 200}, 1000) {
				t.Fatal("Reset kept the dropped values' byte count")
			}
			if len(env.timers) != 1 {
				t.Fatalf("%d flush timers in flight after Reset+Add, want 1", len(env.timers))
			}
			if env.fire(); flushed != 1 {
				t.Fatalf("the flush saw %d staged values, want the 1 added after Reset", flushed)
			}
		})
	}
}

// TestBatcherTailAllocFree pins the steady state every protocol inherits:
// staging values, cutting them into a pooled batch, delivering the batch
// through the tail with a trace attached, and recycling the array when
// the trim step retires it allocate nothing.
func TestBatcherTailAllocFree(t *testing.T) {
	env := &stubEnv{now: time.Second}
	var (
		b    Batcher
		gc   Trim
		tail Tail
		inst int64
		got  int
	)
	b.Init(env, time.Millisecond, func() {})
	tail.Deliver = func(int64, Value) { got++ }
	tr := NewDelivTrace(0)
	round := func() {
		for i := 0; i < 16; i++ {
			b.Add(Value{ID: ValueID(i), Bytes: 512, Born: time.Millisecond}, 8<<10)
		}
		env.fire()
		batch := b.Cut(&gc.Pool, true, 8<<10)
		tail.Batch(tr, env, inst, batch, nil)
		gc.Report(1, inst)
		if _, _, ok := gc.Advance(1); !ok {
			t.Fatal("trim floor did not advance")
		}
		gc.Retire(batch.Vals)
		inst++
	}
	for i := 0; i < 4; i++ {
		round() // warm the slab, the pool classes and the quarantine slice
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state Add+Cut+tail+trim allocates %.1f per round, want 0", allocs)
	}
	if int64(got) != tail.DeliveredMsgs || tr.Count() != tail.DeliveredMsgs {
		t.Fatalf("delivered %d, traced %d, counted %d", got, tr.Count(), tail.DeliveredMsgs)
	}
}
