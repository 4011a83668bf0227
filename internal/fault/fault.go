// Package fault describes deterministic fault schedules for the
// simulated LAN: seeded datagram drop/dup/delay rules, process
// crash+restart events (with distinct "frozen" and
// "crashed-and-lost-volatile-state" modes), and link partitions that
// heal. A schedule is pure data — the LAN interprets it
// (lan.LAN.InstallFaults) by scheduling each event on the target node's
// own kernel, so the same schedule replays byte-identically in
// sequential and PDES (-par N) runs.
//
// The schedule only says when faults happen; what a crash does is the
// LAN's one crash model, the same with or without a schedule: Freeze
// holds TCP frames at the receiver like a paused process's socket
// buffer, Lose resets connections (credit returned, queued messages
// dropped) like a dead process's RST. Net.DropRate is the one way to
// lose datagrams at random.
package fault

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/proto"
)

// Mode distinguishes what a crash destroys.
type Mode uint8

const (
	// Freeze models a paused process (GC stall, SIGSTOP, VM freeze):
	// timers at the node keep firing into the void, TCP frames addressed
	// to it are held in its socket buffer (window backpressure stalls
	// senders losslessly) and delivered on restart; no state is lost.
	Freeze Mode = iota
	// Lose models a real crash: connections to the node reset (in-flight
	// frames are lost but the sender's window credit returns), the
	// node's own queued-but-unsent messages are dropped, and on restart
	// the handler's volatile soft state is discarded via
	// proto.VolatileLoser.
	Lose
)

func (m Mode) String() string {
	if m == Lose {
		return "lose"
	}
	return "freeze"
}

// Kind is the event discriminator.
type Kind uint8

const (
	// CrashEvent takes the node down in the event's Mode.
	CrashEvent Kind = iota + 1
	// RestartEvent brings the node back (delivering held frames after a
	// Freeze, discarding volatile state after a Lose).
	RestartEvent
	// PartitionEvent installs the event's Sides map on every node: a
	// node may only exchange traffic with nodes on its own side
	// (unlisted nodes are side 0). TCP frames to the far side are held
	// at the sender (lossless); datagrams are counted lost and dropped.
	PartitionEvent
	// HealEvent clears the partition and re-pumps held TCP traffic.
	HealEvent
	// CallEvent invokes Fn at the node (skipped while the node is
	// down, like any handler-facing event). Use it to drive recovery
	// actions — e.g. telling a surviving replica to take over a ring.
	CallEvent
)

func (k Kind) String() string {
	switch k {
	case CrashEvent:
		return "crash"
	case RestartEvent:
		return "restart"
	case PartitionEvent:
		return "partition"
	case HealEvent:
		return "heal"
	case CallEvent:
		return "call"
	}
	return "?"
}

// Event is one scheduled fault. Which fields matter depends on Kind:
// Node for crash/restart/call, Mode for crash, Sides for partition,
// Fn for call.
type Event struct {
	At   time.Duration
	Kind Kind
	Node proto.NodeID
	Mode Mode
	// Sides maps node id -> partition side for PartitionEvent. The map
	// is shared read-only by every node after installation; do not
	// mutate it once the run starts. Nodes absent from the map are on
	// side 0.
	Sides map[proto.NodeID]int
	Fn    func()
}

// Net holds the seeded datagram fault rules, applied per destination at
// the sender from the sender's own RNG stream (so PDES partitions draw
// identically to sequential runs). TCP traffic is never dropped or
// duplicated — it models a reliable transport; crash/partition events
// are how TCP paths fail.
type Net struct {
	DropRate  float64       // P(datagram lost) per destination
	DupRate   float64       // P(datagram duplicated) per destination
	DelayRate float64       // P(extra delay) per destination
	DelayMax  time.Duration // extra delay ~ U[0, DelayMax)
}

// Enabled reports whether any datagram fault rule is active.
func (n Net) Enabled() bool {
	return n.DropRate > 0 || n.DupRate > 0 || (n.DelayRate > 0 && n.DelayMax > 0)
}

// Schedule is an ordered set of fault events plus network fault rules.
// Build one with the fluent methods below or Generate, then hand it to
// lan.LAN.InstallFaults before Start.
type Schedule struct {
	Seed   int64
	Net    Net
	events []Event
}

// New returns an empty schedule, which injects no fault.
func New(seed int64) *Schedule { return &Schedule{Seed: seed} }

// WithNet sets the datagram fault rules.
func (s *Schedule) WithNet(n Net) *Schedule {
	s.Net = n
	return s
}

// Crash schedules a crash of node in the given mode.
func (s *Schedule) Crash(at time.Duration, node proto.NodeID, mode Mode) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: CrashEvent, Node: node, Mode: mode})
	return s
}

// Restart schedules a restart of node.
func (s *Schedule) Restart(at time.Duration, node proto.NodeID) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: RestartEvent, Node: node})
	return s
}

// CrashFor schedules a crash at `at` and the matching restart after
// `down`.
func (s *Schedule) CrashFor(at, down time.Duration, node proto.NodeID, mode Mode) *Schedule {
	return s.Crash(at, node, mode).Restart(at+down, node)
}

// Partition schedules a partition with the given sides at `at`, healing
// after `dur`. Sides maps node id -> side; unlisted nodes are side 0.
func (s *Schedule) Partition(at, dur time.Duration, sides map[proto.NodeID]int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: PartitionEvent, Sides: sides})
	s.events = append(s.events, Event{At: at + dur, Kind: HealEvent})
	return s
}

// Split is Partition with the sides map built from a minority list: the
// named nodes form side 1, everyone else stays on side 0.
func (s *Schedule) Split(at, dur time.Duration, minority ...proto.NodeID) *Schedule {
	sides := make(map[proto.NodeID]int, len(minority))
	for _, id := range minority {
		sides[id] = 1
	}
	return s.Partition(at, dur, sides)
}

// Call schedules fn to run at the node (a no-op if the node is down at
// that instant).
func (s *Schedule) Call(at time.Duration, node proto.NodeID, fn func()) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: CallEvent, Node: node, Fn: fn})
	return s
}

// Events returns the schedule's events sorted by time (stable, so
// same-instant events keep insertion order).
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of scheduled events.
func (s *Schedule) Len() int { return len(s.events) }

// Profile parameterizes Generate: how many crashes and partitions to
// place inside a window, drawn deterministically from the seed.
type Profile struct {
	// Window bounds fault activity: every crash and partition starts at
	// or after Window[0] and is healed/restarted before Window[1].
	Window [2]time.Duration

	Crashes    int            // number of crash+restart pairs
	CrashNodes []proto.NodeID // crash victims are drawn from this set
	Mode       Mode           // crash mode for every generated crash
	MinDown    time.Duration  // outage duration ~ U[MinDown, MaxDown)
	MaxDown    time.Duration
	// Pinned targets crash i at Pinned[i] instead of a CrashNodes draw
	// (crashes beyond len(Pinned) draw as usual). Failover experiments pin
	// the coordinator so every seed exercises an election.
	Pinned []proto.NodeID
	// NoRestart is the probability that a generated crash is permanent
	// (no restart event). Draws that stay under it keep their crash+restart
	// pair, so 0 preserves prior schedules and 1 makes every crash final.
	NoRestart float64

	Partitions int            // number of partition+heal pairs
	Minority   []proto.NodeID // side-1 membership for every partition
	MinPart    time.Duration  // partition duration ~ U[MinPart, MaxPart)
	MaxPart    time.Duration

	Net Net // datagram fault rules, copied to the schedule
}

// Generate builds a schedule from a seed: the window is divided into
// equal slots, one fault per slot (crashes first, then partitions), with
// the start jittered inside the slot's first half and the duration
// clamped so the fault always resolves inside its slot — faults never
// overlap, so any prefix of recovery logic can be exercised in
// isolation. Same seed, same profile -> identical schedule.
func Generate(seed int64, p Profile) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := New(seed).WithNet(p.Net)
	total := p.Crashes + p.Partitions
	if total == 0 {
		return s
	}
	span := p.Window[1] - p.Window[0]
	slot := span / time.Duration(total)
	for i := 0; i < total; i++ {
		start := p.Window[0] + time.Duration(i)*slot
		jitter := time.Duration(rng.Int63n(int64(slot/2) + 1))
		at := start + jitter
		if i < p.Crashes {
			// Draw order is fixed (node, then duration, then — only when
			// the knob is set — the permanence coin), so profiles that
			// leave the new knobs zero generate byte-identical schedules.
			var node proto.NodeID
			if len(p.CrashNodes) > 0 {
				node = p.CrashNodes[rng.Intn(len(p.CrashNodes))]
			}
			if i < len(p.Pinned) {
				node = p.Pinned[i]
			}
			down := durBetween(rng, p.MinDown, p.MaxDown)
			down = clampDur(down, slot-jitter-time.Millisecond)
			if p.NoRestart > 0 && rng.Float64() < p.NoRestart {
				s.Crash(at, node, p.Mode)
			} else {
				s.CrashFor(at, down, node, p.Mode)
			}
		} else {
			dur := durBetween(rng, p.MinPart, p.MaxPart)
			dur = clampDur(dur, slot-jitter-time.Millisecond)
			s.Split(at, dur, p.Minority...)
		}
	}
	return s
}

func durBetween(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

func clampDur(d, max time.Duration) time.Duration {
	if max < time.Millisecond {
		max = time.Millisecond
	}
	if d > max {
		return max
	}
	return d
}
