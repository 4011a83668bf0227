package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 40}, 10, 20, 40},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1 ((8.25-2.75)/5.5)", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestLatCutEmptiesBuffer(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i)*time.Microsecond)
	}
	p50, p90, p99, n := latCut(&s)
	if p50 != 100 || p90 != 180 || p99 != 198 || n != 200 || len(s) != 0 {
		t.Errorf("latCut = %v %v %v %d, buffer %d left", p50, p90, p99, n, len(s))
	}
}

// Chunk aggregation: rates and latencies are medians over chunks, counts are
// totals, and a chunk that took three times as long moves the total but not
// the median.
func TestSummarizeReportsMedianChunk(t *testing.T) {
	chunks := []chunk{
		{cmds: 1000, hostNs: 1e9, mallocs: 10, events: 100, clock: time.Second, p50us: 10, p90us: 50, p99us: 100, latN: 1000},
		{cmds: 1000, hostNs: 3e9, mallocs: 30, events: 100, clock: time.Second, p50us: 30, p90us: 150, p99us: 300, latN: 500},
		{cmds: 1000, hostNs: 1e9, mallocs: 20, events: 100, clock: time.Second, p50us: 20, p90us: 100, p99us: 200, latN: 2000},
	}
	s := summarize(chunks)
	if s.cmds != 3000 || s.hostNs != 5e9 || s.mallocs != 60 || s.events != 300 || s.clock != 3*time.Second {
		t.Errorf("totals wrong: %+v", s)
	}
	if s.hostCmdsPerS != 1000 || s.hostNsPerCmd != 1e6 {
		t.Errorf("median chunk rate = %v (%v ns/cmd), want 1000 (1e6)", s.hostCmdsPerS, s.hostNsPerCmd)
	}
	if s.latP50 != 20 || s.latP90 != 100 || s.latP99 != 200 || s.latN != 500 {
		t.Errorf("latency = p50 %v p90 %v p99 %v n %d, want 20 100 200 500", s.latP50, s.latP90, s.latP99, s.latN)
	}
}

// Self time is a span's duration minus what its children cover.
func TestStackSelfTime(t *testing.T) {
	var s stack
	s.enter(lyDispatch)
	s.enter(lyRingpaxos)
	s.enter(lySend)
	time.Sleep(2 * time.Millisecond)
	s.exit()
	s.exit()
	s.exit()
	if s.calls[lyDispatch] != 1 || s.calls[lyRingpaxos] != 1 || s.calls[lySend] != 1 {
		t.Fatalf("span counts %v", s.calls)
	}
	if s.self[lySend] < int64(2*time.Millisecond) {
		t.Errorf("leaf self time %v < its sleep", s.self[lySend])
	}
	if s.self[lyRingpaxos] > int64(time.Millisecond) || s.self[lyDispatch] > int64(time.Millisecond) {
		t.Errorf("parents kept their child's time: %v", s.self)
	}
}
