// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order, which makes every
// run fully deterministic for a fixed seed and schedule. All protocol
// benchmarks in this repository execute on top of this kernel so that the
// reproduced figures are stable across machines and runs.
//
// There is one event engine, LP (lp.go, which also documents its hot-path
// design): the Simulator is one LP running sequentially, and a partitioned
// run is several LPs under a Par.
//
// Events come in two flavors: closures (Event) for protocol code, and
// TypedEvents for substrates like internal/lan that schedule millions of
// homogeneous events and cannot afford one closure allocation per message.
// Both flavors share the same (time, rank) total order, so mixing them cannot
// perturb determinism.
package sim

import (
	"math/rand"
	"time"
)

// Event is a callback executed at a virtual instant.
type Event func()

// TypedEvent is a pre-boxed event payload dispatched through the engine's
// Dispatcher instead of a closure. Substrates define their own Kind values
// and pack whatever the handler needs into the scalar and interface fields;
// scheduling one performs no allocation because the payload is copied into
// the kernel's slab by value.
type TypedEvent struct {
	// Kind selects the dispatcher's handling; 0 is reserved for closures.
	Kind uint8
	// A, B, D are scalar payload fields (ids, sizes, ...).
	A, B, D int64
	// P1, P2 are reference payload fields (a message, a connection, ...).
	// Storing an existing interface value or pointer here does not allocate.
	P1, P2 any
}

// Dispatcher executes typed events. Install one with SetDispatcher before
// scheduling any TypedEvent.
type Dispatcher func(TypedEvent)

// Simulator is the sequential kernel: an LP that never opens a window — every
// scheduling call takes its rank straight from the counter, which is the
// (time, seq) order — plus the run's random source. Scheduling (At, After,
// AtEvent, AfterEvent), Now, Steps and Pending are the embedded engine's.
// The zero value is not usable; construct with New.
type Simulator struct {
	LP
	rng *rand.Rand
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	s := &Simulator{rng: rand.New(rand.NewSource(seed))}
	s.LP.init()
	return s
}

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Step executes the next pending event, advancing the clock to its instant.
// It reports whether an event was executed.
func (s *Simulator) Step() bool { return s.step(maxTime) }

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled later remain queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for s.step(deadline) {
	}
	s.AdvanceTo(deadline)
}
