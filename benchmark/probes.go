package main

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// probeIters sizes a probe loop: perSecond iterations per unit of -seconds,
// so probes shrink with the run like everything else.
func probeIters(perSecond int, seconds float64) int {
	if n := int(float64(perSecond) * seconds); n > 1 {
		return n
	}
	return 1
}

// probeSimKernel times the sim kernel alone under the classic hold model:
// the queue is pre-filled to depth events and every dispatched event
// schedules one successor, so the heap stays at the depth the workload was
// sampled at. It returns host nanoseconds per event (schedule + pop +
// dispatch).
func probeSimKernel(depth int, seed int64, seconds float64) float64 {
	events := probeIters(200_000, seconds)
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(1 + rng.Int63n(int64(100*time.Microsecond)))
	}
	s := sim.New(seed)
	n := 0
	s.SetDispatcher(func(ev sim.TypedEvent) {
		if n < events {
			n++
			s.AfterEvent(delays[n&1023], ev)
		}
	})
	for i := 0; i < depth; i++ {
		s.AfterEvent(delays[i&1023], sim.TypedEvent{Kind: 1})
	}
	t0 := time.Now()
	s.Run()
	return float64(time.Since(t0)) / float64(events+depth)
}
