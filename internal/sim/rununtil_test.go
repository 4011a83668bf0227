package sim

import (
	"testing"
	"time"
)

// TestRunUntilDeadlineInclusive: an event scheduled exactly at the deadline
// fires, and the clock lands on the deadline, not past it.
func TestRunUntilDeadlineInclusive(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		var atDeadline, after bool
		s.At(10, func() { atDeadline = true })
		s.At(11, func() { after = true })
		s.RunUntil(10)
		if !atDeadline {
			t.Fatal("event at the deadline instant did not fire")
		}
		if after {
			t.Fatal("event past the deadline fired")
		}
		if s.Now() != 10 {
			t.Fatalf("clock at %v, want 10", s.Now())
		}
		s.Run()
		if !after {
			t.Fatal("post-deadline event lost")
		}
	})
}

// TestRunUntilDeadHeadBeforeDeadline: cancelled events at the queue head are
// discarded without firing and without disturbing the clock.
func TestRunUntilDeadHeadBeforeDeadline(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		tm1 := s.At(1, func() { t.Error("cancelled event fired") })
		tm2 := s.At(2, func() { t.Error("cancelled event fired") })
		fired := false
		s.At(5, func() { fired = true })
		tm1.Cancel()
		tm2.Cancel()
		s.RunUntil(10)
		if !fired {
			t.Fatal("live event behind dead head did not fire")
		}
		if s.Now() != 10 {
			t.Fatalf("clock at %v, want 10", s.Now())
		}
	})
}

// TestRunUntilDeadHeadPastDeadline: a dead event beyond the deadline must
// not stop the clock from advancing to the deadline, and must stay dead.
func TestRunUntilDeadHeadPastDeadline(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		tm := s.At(50, func() { t.Error("cancelled event fired") })
		tm.Cancel()
		s.RunUntil(10)
		if s.Now() != 10 {
			t.Fatalf("clock at %v, want 10", s.Now())
		}
		s.Run()
		if s.Now() != 10 {
			t.Fatalf("dead event advanced the clock to %v", s.Now())
		}
	})
}

// TestRunUntilSameInstantScheduling: events that schedule follow-ups at the
// current instant run them within the same RunUntil, in scheduling order,
// with a monotone clock throughout.
func TestRunUntilSameInstantScheduling(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		var order []int
		var clocks []time.Duration
		s.At(10, func() {
			order = append(order, 1)
			clocks = append(clocks, s.Now())
			s.At(10, func() { // same instant as the deadline
				order = append(order, 3)
				clocks = append(clocks, s.Now())
			})
		})
		s.At(10, func() {
			order = append(order, 2)
			clocks = append(clocks, s.Now())
		})
		s.RunUntil(10)
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("same-instant order %v, want [1 2 3]", order)
		}
		for i, c := range clocks {
			if c != 10 {
				t.Fatalf("event %d saw clock %v, want 10", i, c)
			}
		}
	})
}

// TestRunUntilClockMonotone: repeated RunUntil calls never move the clock
// backwards, including deadlines in the past.
func TestRunUntilClockMonotone(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		s.At(3, func() {})
		s.RunUntil(5)
		if s.Now() != 5 {
			t.Fatalf("clock at %v, want 5", s.Now())
		}
		s.RunUntil(2) // past deadline: no-op
		if s.Now() != 5 {
			t.Fatalf("past deadline rewound clock to %v", s.Now())
		}
		s.RunUntil(5) // same deadline: no-op
		if s.Now() != 5 {
			t.Fatalf("clock moved to %v on same-deadline call", s.Now())
		}
	})
}

// TestRunUntilEmptyQueueAdvancesClock: with nothing scheduled the clock
// still advances to the deadline.
func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	eachKernel(t, func(t *testing.T, s kernel) {
		s.RunUntil(7)
		if s.Now() != 7 {
			t.Fatalf("clock at %v, want 7", s.Now())
		}
	})
}
