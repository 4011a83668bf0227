package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the spreads this program prints are the ones the driver computes. It needs
// at least two values; with fewer all three are the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure the benchmark contract bounds.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, 0 if it is empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

// tailLadder lists the tail percentiles a timing may be reported at, with
// the share of samples beyond each as "one in".
var tailLadder = []struct {
	p     float64
	oneIn int
}{{90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile returns the highest percentile of tailLadder that still has
// at least ten of n samples beyond it, or 0 when even the lowest has fewer: a
// tail read off fewer samples than that is one outlier, not a percentile.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n/t.oneIn >= 10 {
			best = t.p
		}
	}
	return best
}

// latCut sorts one chunk's latency samples, returns their p50, p90 and p99
// in microseconds with the sample count, and empties the buffer for reuse.
func latCut(samples *[]time.Duration) (p50, p90, p99 float64, n int) {
	s := *samples
	n = len(s)
	if n == 0 {
		return 0, 0, 0, 0
	}
	us := make([]float64, n)
	for i, d := range s {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	*samples = s[:0]
	return percentile(us, 50), percentile(us, 90), percentile(us, 99), n
}

// chunk is one fixed slice of a workload's measured window. Every host-time
// metric is a median over chunks, so one descheduled slice does not move it.
type chunk struct {
	cmds    int64         // commands completed
	hostNs  int64         // host wall-clock spent
	mallocs uint64        // runtime.MemStats.Mallocs delta
	events  uint64        // simulator events executed (sim-* only)
	clock   time.Duration // simulated time covered (sim-* only)
	p50us   float64       // command latency percentiles in the workload's clock
	p90us   float64
	p99us   float64
	latN    int
}

// chunkSummary aggregates the measured chunks of one pass.
type chunkSummary struct {
	cmds, hostNs           int64
	mallocs                uint64
	events                 uint64
	clock                  time.Duration
	hostCmdsPerS           float64 // median chunk
	hostNsPerCmd           float64 // median chunk
	latP50, latP90, latP99 float64 // median chunk
	latN                   int     // smallest chunk's sample count
	rateQ1, rateQ3         float64
}

func summarize(chunks []chunk) chunkSummary {
	var s chunkSummary
	var rates, nsPer, p50s, p90s, p99s []float64
	for i, c := range chunks {
		s.cmds += c.cmds
		s.hostNs += c.hostNs
		s.mallocs += c.mallocs
		s.events += c.events
		s.clock += c.clock
		if c.hostNs > 0 && c.cmds > 0 {
			rates = append(rates, float64(c.cmds)/(float64(c.hostNs)/1e9))
			nsPer = append(nsPer, float64(c.hostNs)/float64(c.cmds))
		}
		if c.latN > 0 {
			p50s = append(p50s, c.p50us)
			p90s = append(p90s, c.p90us)
			p99s = append(p99s, c.p99us)
		}
		if i == 0 || c.latN < s.latN {
			s.latN = c.latN
		}
	}
	s.rateQ1, s.hostCmdsPerS, s.rateQ3 = quartiles(rates)
	s.hostNsPerCmd = median(nsPer)
	s.latP50, s.latP90, s.latP99 = median(p50s), median(p90s), median(p99s)
	return s
}
