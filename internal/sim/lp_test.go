package sim

import (
	"fmt"
	"testing"
	"time"
)

// trace records (instant, label) execution points for equivalence checks.
type trace struct{ got []string }

func (tr *trace) hit(now time.Duration, label string) {
	tr.got = append(tr.got, fmt.Sprintf("%v %s", now, label))
}

// buildChain schedules, through the given scheduling primitives, a workload
// whose callbacks themselves schedule: a chain that re-arms itself plus
// same-instant siblings, exercising the (fireAt, rank) tiebreak.
func buildChain(tr *trace, now func() time.Duration, after func(time.Duration, Event)) {
	var step func()
	n := 0
	step = func() {
		tr.hit(now(), fmt.Sprintf("step%d", n))
		n++
		if n < 5 {
			// Two children at the same instant: scheduling order must be
			// execution order.
			after(30*time.Microsecond, func() { tr.hit(now(), "a") })
			after(30*time.Microsecond, func() { tr.hit(now(), "b") })
			after(30*time.Microsecond, step)
		}
	}
	after(0, step)
}

// TestParSingleLPMatchesSimulator drives the same workload through the
// sequential Simulator and through a one-LP Par and requires byte-identical
// execution traces: the degenerate partitioning must be exactly the
// sequential run.
func TestParSingleLPMatchesSimulator(t *testing.T) {
	seq := &trace{}
	s := New(1)
	buildChain(seq, s.Now, func(d time.Duration, fn Event) { s.After(d, fn) })
	s.RunUntil(time.Millisecond)

	par := &trace{}
	lp := NewLP()
	buildChain(par, lp.Now, func(d time.Duration, fn Event) { lp.After(d, fn) })
	p := &Par{LPs: []*LP{lp}, Horizon: 50 * time.Microsecond,
		Barrier: func() { ReplayWindow([]*LP{lp}, nil) }}
	p.RunUntil(time.Millisecond)

	if len(seq.got) != len(par.got) {
		t.Fatalf("trace lengths differ: sequential %d, partitioned %d", len(seq.got), len(par.got))
	}
	for i := range seq.got {
		if seq.got[i] != par.got[i] {
			t.Fatalf("trace diverges at %d: sequential %q, partitioned %q", i, seq.got[i], par.got[i])
		}
	}
	if lp.Now() != time.Millisecond {
		t.Fatalf("LP clock not advanced to deadline: %v", lp.Now())
	}
}

// TestParHorizonBoundary pins the strictness of the window bound: an event
// exactly at floor+Horizon must not execute in the window that computed that
// bound (its LP could still receive an earlier cross-LP message), and must
// execute — at the right instant — in a later window.
func TestParHorizonBoundary(t *testing.T) {
	const horizon = 50 * time.Microsecond
	lpA, lpB := NewLP(), NewLP()
	var c uint64
	lpA.SetSeqSource(&c)
	lpB.SetSeqSource(&c)
	tr := &trace{}
	lpA.At(0, func() { tr.hit(lpA.Now(), "floor") })
	lpB.At(horizon, func() { tr.hit(lpB.Now(), "boundary") }) // exactly at bound
	lps := []*LP{lpA, lpB}
	p := &Par{LPs: lps, Horizon: horizon,
		Barrier: func() { ReplayWindow(lps, nil) }}
	p.RunUntil(time.Millisecond)
	want := []string{"0s floor", "50µs boundary"}
	if len(tr.got) != 2 || tr.got[0] != want[0] || tr.got[1] != want[1] {
		t.Fatalf("got trace %v, want %v", tr.got, want)
	}
	if p.Windows != 2 {
		t.Fatalf("boundary event must fall past the first window: ran %d windows, want 2", p.Windows)
	}
}

// TestParZeroHorizonPanics pins the zero-lookahead guard: a Par with no
// horizon would spin on empty windows, so RunUntil must refuse loudly (the
// partitioning layer falls back to sequential execution instead, see
// lan.Partition).
func TestParZeroHorizonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil with Horizon=0 did not panic")
		}
	}()
	(&Par{LPs: []*LP{NewLP()}}).RunUntil(time.Millisecond)
}

// TestInjectRankOrder pins the injection contract: same-instant events
// execute in rank order regardless of insertion order, because the rank is
// the sequential run's seq.
func TestInjectRankOrder(t *testing.T) {
	lp := NewLP()
	lp.SetDispatcher(func(ev TypedEvent) { ev.P1.(func())() })
	var got []string
	at := 100 * time.Microsecond
	lp.Inject(at, 9, TypedEvent{P1: func() { got = append(got, "late") }})
	lp.Inject(at, 3, TypedEvent{P1: func() { got = append(got, "early") }})
	lp.RunBefore(time.Millisecond)
	if len(got) != 2 || got[0] != "early" || got[1] != "late" {
		t.Fatalf("injection order not rank order: %v", got)
	}
}

// TestReplayWindowRanksCrossLP pins the replay's core ordering rule: calls
// made during a window are ranked by (caller instant, caller rank, call
// order) across LPs, so a child scheduled by an earlier-ranked caller sorts
// first even when its LP logged it later in wall time.
func TestReplayWindowRanksCrossLP(t *testing.T) {
	lpA, lpB := NewLP(), NewLP()
	var c uint64
	lpA.SetSeqSource(&c)
	lpB.SetSeqSource(&c)
	at := 10 * time.Microsecond
	// Direct-mode scheduling (outside a window) ranks immediately: B's
	// event first (rank 1), then A's (rank 2) — both firing at the same
	// instant, each making one external call from inside the window.
	lpB.At(at, func() { lpB.NoteXCall() })
	lpA.At(at, func() { lpA.NoteXCall() })
	var order []int
	lps := []*LP{lpA, lpB}
	(&Par{LPs: lps, Horizon: 30 * time.Microsecond,
		Barrier: func() {
			ReplayWindow(lps, func(lp, x int, rank uint64) { order = append(order, lp) })
		}}).RunUntil(time.Millisecond)
	// The replay must order the same-instant calls by their callers' ranks
	// (B before A), not by LP index.
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("replay rank order wrong: %v (want [1 0])", order)
	}
}
