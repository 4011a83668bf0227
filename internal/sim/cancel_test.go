package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// kernel is what the Cancel and RunUntil cases drive: the engine's
// scheduling surface plus a way to run it to a deadline.
type kernel struct {
	*LP
	RunUntil func(time.Duration)
}

// Run drains the queue, leaving the clock at the last event's instant.
func (k kernel) Run() {
	for k.Step() {
	}
}

// Step runs the earliest pending instant and reports whether there was one.
func (k kernel) Step() bool {
	at, ok := k.NextAt()
	if ok {
		k.RunUntil(at)
	}
	return ok
}

// eachKernel runs a case on both ways of driving the one engine: the plain
// Simulator, where every rank is exact, and a one-LP Par, where every call
// made from a callback is ranked provisionally and re-ranked by ReplayWindow
// at the next barrier. The horizon is a few of the cases' time units, so
// their schedules span many windows.
func eachKernel(t *testing.T, fn func(t *testing.T, k kernel)) {
	t.Run("simulator", func(t *testing.T) {
		s := New(1)
		fn(t, kernel{&s.LP, s.RunUntil})
	})
	t.Run("par", func(t *testing.T) {
		lps := []*LP{NewLP()}
		p := &Par{LPs: lps, Horizon: 3, Barrier: func() { ReplayWindow(lps, nil) }}
		fn(t, kernel{lps[0], p.RunUntil})
	})
}

// TestCancelAfterFire: cancelling a timer whose event already ran must be a
// no-op, even though the slab slot has been recycled for a newer event.
func TestCancelAfterFire(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		fired := 0
		t1 := s.After(1, func() { fired++ })
		s.Run()
		if fired != 1 {
			t.Fatalf("fired=%d, want 1", fired)
		}
		// The slot freed by t1's firing is the next one allocated: t2 reuses it.
		var fired2 bool
		t2 := s.After(1, func() { fired2 = true })
		t1.Cancel() // stale handle: generation mismatch, must not touch t2
		s.Run()
		if !fired2 {
			t.Fatal("stale Cancel killed an unrelated timer occupying the reused slot")
		}
		_ = t2
	})
}

// TestCancelTwice: double-cancel must be a no-op and must not corrupt the
// dead-event accounting that drives compaction.
func TestCancelTwice(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		fired := false
		tm := s.After(5, func() { fired = true })
		other := s.After(6, func() {})
		tm.Cancel()
		tm.Cancel()
		if got := s.Pending(); got != 1 {
			t.Fatalf("Pending=%d after double cancel, want 1", got)
		}
		// The cancelled slot is recycled; a stale third Cancel must not kill the
		// new occupant either.
		replacement := s.After(7, func() {})
		s.Run()
		if fired {
			t.Fatal("cancelled timer fired")
		}
		_, _ = other, replacement
	})
}

// TestCancelZeroTimer: the zero Timer cancels nothing and must not panic.
func TestCancelZeroTimer(t *testing.T) {
	var tm Timer
	tm.Cancel()
}

// TestPendingExcludesCancelled: Pending reports live events only; cancelled
// timers must not leak into the count no matter how many accumulate.
func TestPendingExcludesCancelled(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		var timers []Timer
		for i := 0; i < 1000; i++ {
			timers = append(timers, s.After(time.Duration(i+1), func() {}))
		}
		keep := s.After(2000, func() {})
		for _, tm := range timers {
			tm.Cancel()
		}
		if got := s.Pending(); got != 1 {
			t.Fatalf("Pending=%d with 1 live event, want 1", got)
		}
		// Mass cancellation triggers compaction; the survivor must still fire at
		// its scheduled instant.
		if got := len(s.heap); got >= 500 {
			t.Fatalf("compaction did not sweep: %d heap entries for 1 live event", got)
		}
		s.Run()
		if s.Now() != 2000 {
			t.Fatalf("survivor fired at %v, want 2000", s.Now())
		}
		_ = keep
	})
}

// TestCancelledSlotsAreReused: steady schedule/cancel churn must not grow
// the slab (the free-list recycles cancelled slots after they are swept).
func TestCancelledSlotsAreReused(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		for i := 0; i < 100_000; i++ {
			tm := s.After(5, func() {})
			s.After(1, func() {})
			tm.Cancel()
			s.Step()
		}
		if got := len(s.slab); got > 4096 {
			t.Fatalf("slab grew to %d slots under schedule/cancel churn", got)
		}
	})
}

// TestCompactionPreservesOrder: sweeping dead entries rebuilds the heap; the
// surviving events must still fire in exact (time, seq) order. The schedule
// is built once between runs, where every rank is exact, and once from inside
// an event — under Par that is inside a window, so the compaction re-heapifies
// provisional ranks, and the barrier then re-ranks what it left.
func TestCompactionPreservesOrder(t *testing.T) {
	for _, inEvent := range []bool{false, true} {
		name := "between runs"
		if inEvent {
			name = "inside an event"
		}
		t.Run(name, func(t *testing.T) {
			eachKernel(t, func(t *testing.T, s kernel) {
				rng := rand.New(rand.NewSource(3))
				var got, want []int
				type sched struct {
					at time.Duration
					id int
				}
				var keepers []sched
				build := func() {
					var cancels []Timer
					// Interleave keepers and victims across shuffled instants,
					// same-instant collisions included.
					for i := 0; i < 500; i++ {
						at := time.Duration(rng.Intn(50))
						if i%3 == 0 {
							i := i
							keepers = append(keepers, sched{at, i})
							s.At(at, func() { got = append(got, i) })
						} else {
							cancels = append(cancels, s.At(at, func() { t.Error("cancelled event fired") }))
						}
					}
					for _, tm := range cancels {
						tm.Cancel() // bulk cancel forces at least one compaction
					}
					if len(s.heap) >= 400 {
						t.Errorf("compaction did not sweep: %d heap entries for %d live events", len(s.heap), len(keepers))
					}
					if s.inWin && s.heap[0].rank&provisionalBit == 0 {
						t.Error("in-window schedule left no provisional rank in the heap")
					}
				}
				if inEvent {
					s.At(0, build)
				} else {
					build()
				}
				// Expected order: by instant, then scheduling order (ids were
				// issued in seq order, so a stable sort by time is exactly
				// (time, seq)).
				s.Run()
				sort.SliceStable(keepers, func(i, j int) bool { return keepers[i].at < keepers[j].at })
				for _, k := range keepers {
					want = append(want, k.id)
				}
				if len(got) != len(want) {
					t.Fatalf("fired %d keepers, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("firing order diverges at %d: got %d want %d", i, got[i], want[i])
					}
				}
			})
		})
	}
}

// TestCancelAfterBarrierRerank: a timer armed from inside a window carries a
// provisional rank until the barrier rewrites it; cancelling it in a later
// window must kill exactly that event and leave its same-instant siblings —
// ranked in this window and in an earlier one — in scheduling order.
func TestCancelAfterBarrierRerank(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		var tr trace
		hit := func(label string) Event { return func() { tr.hit(s.Now(), label) } }
		var victim Timer
		s.At(0, func() {
			tr.hit(s.Now(), "arm")
			s.At(100, hit("before"))
			victim = s.At(100, func() { t.Error("cancelled timer fired") })
			s.At(100, hit("after"))
			s.At(50, func() { // many windows later: victim's rank is exact by now
				tr.hit(s.Now(), "cancel")
				victim.Cancel()
				victim.Cancel()
				// Under Par this call's provisional rank restarts at the
				// window's log position 0 — the stale key "before" still
				// carries in its heap entry — so only the slab orders them.
				s.At(100, hit("late"))
			})
		})
		s.Run()
		want := []string{"0s arm", "50ns cancel", "100ns before", "100ns after", "100ns late"}
		if len(tr.got) != len(want) {
			t.Fatalf("trace %v, want %v", tr.got, want)
		}
		for i := range want {
			if tr.got[i] != want[i] {
				t.Fatalf("trace %v, want %v", tr.got, want)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending=%d after drain", s.Pending())
		}
	})
}
