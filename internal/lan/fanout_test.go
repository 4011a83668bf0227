package lan

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
)

// fanoutRun is one run of the fan-out rig: per-node receive traces, per-node
// Stats, and the events the run executed.
type fanoutRun struct {
	traces map[proto.NodeID][]string
	stats  map[proto.NodeID]Stats
	events uint64
}

// Node ids of the fan-out rig.
const (
	fanSender  = proto.NodeID(0)   // multicasts to both groups, and is a member of group 7
	fanTCPDst  = proto.NodeID(2)   // in-link kept busy by a TCP stream from fanTCPSrc
	fanSlow    = proto.NodeID(4)   // slow CPU: its receive buffer overflows
	fanCrashed = proto.NodeID(5)   // Lose-crashed for a millisecond
	fanLate    = proto.NodeID(8)   // subscribes to group 7 while a frame is in flight
	fanTCPSrc  = proto.NodeID(9)   // streams TCP frames into fanTCPDst
	fanWide    = proto.NodeID(200) // first of the 70 members of group 8

	zeroByte = 1 << 30 // tag offset of the rig's zero-byte frames
)

// fanoutRig multicasts 1 KB frames every 100 µs to two groups. Group 7 is
// the sender itself (the loopback ends a run of same-instant members) plus
// nodes 1-6, where node 2's in-link is busy with a TCP stream (its arrival
// splits the run), node 4's receive buffer overflows (a drop inside a run
// of same-instant CPU completions), node 5 is Lose-crashed for a
// millisecond and node 6 has half the bandwidth; node 8 subscribes while a
// frame is in flight. Every tick also sends group 7 a zero-byte frame.
// Group 8 has 70 idle members, past the 64 a grouped
// event can name. nLP > 1 partitions the cluster, which takes the
// per-member path; net adds datagram faults, which take the per-member
// datagramFate draws.
func fanoutRig(t *testing.T, nLP int, net fault.Net) fanoutRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UDPBuf = 6 << 10
	l := New(cfg, 5)
	traces := make(map[proto.NodeID]*[]string)
	add := func(id proto.NodeID, nc NodeConfig, onStart func(proto.Env)) {
		lines := &[]string{}
		traces[id] = lines
		var env proto.Env
		l.AddNodeWithConfig(id, &proto.HandlerFunc{
			OnStart: func(e proto.Env) {
				env = e
				if onStart != nil {
					onStart(e)
				}
			},
			OnReceive: func(from proto.NodeID, m proto.Message) {
				*lines = append(*lines, fmt.Sprintf("%v from n%d tag %d", env.Now(), from, m.(proto.Raw).Tag))
			},
		}, nc)
	}
	add(fanSender, NodeConfig{}, func(env proto.Env) {
		var tick func()
		tag := int64(0)
		tick = func() {
			tag++
			env.Multicast(7, proto.Raw{Bytes: 1 << 10, Tag: tag})
			env.Multicast(8, proto.Raw{Bytes: 1 << 10, Tag: -tag})
			// Zero bytes take no time on a link, so both copies of a
			// duplicated one clear a member's in-link at the same instant.
			env.Multicast(7, proto.Raw{Tag: zeroByte + tag})
			env.After(100*time.Microsecond, tick)
		}
		tick()
	})
	for id := proto.NodeID(1); id <= 8; id++ {
		nc := NodeConfig{}
		switch id {
		case fanSlow:
			nc.CPUScale = 0.02
		case 6:
			nc.BandwidthScale = 0.5
		}
		add(id, nc, nil)
		if id != fanLate {
			l.Subscribe(7, id)
		}
	}
	l.Subscribe(7, fanSender)
	add(fanTCPSrc, NodeConfig{}, func(env proto.Env) {
		var tick func()
		tick = func() {
			env.Send(fanTCPDst, proto.Raw{Bytes: 8 << 10, Tag: 1 << 20})
			env.After(40*time.Microsecond, tick)
		}
		tick()
	})
	for i := proto.NodeID(0); i < 70; i++ {
		add(fanWide+i, NodeConfig{}, nil)
		l.Subscribe(8, fanWide+i)
	}
	if nLP > 1 && !l.Partition(nLP, func(id proto.NodeID) int { return int(id) % nLP }) {
		t.Fatalf("Partition(%d) declined", nLP)
	}
	l.InstallFaults(fault.New(5).WithNet(net).CrashFor(2*time.Millisecond, time.Millisecond, fanCrashed, fault.Lose))
	l.Start()
	// The frames sent at 3 ms are on the wire at 3.02 ms: node 8 must get
	// the next frame but not those.
	l.Run(3*time.Millisecond + 20*time.Microsecond)
	l.Subscribe(7, fanLate)
	l.Run(5 * time.Millisecond)

	r := fanoutRun{traces: make(map[proto.NodeID][]string), stats: make(map[proto.NodeID]Stats), events: l.Sim.Steps()}
	if nLP > 1 {
		_, _, r.events = l.ParStats()
	}
	for id, lines := range traces {
		r.traces[id] = *lines
		r.stats[id] = l.Node(id).Stats()
	}
	return r
}

// TestMulticastFanoutMatchesPerMember requires the sequential run, whose
// multicasts go through grouped events, to receive exactly what the
// partitioned run, which schedules every member on its own, receives: the
// same (instant, sender, message) trace at every node and the same Stats.
func TestMulticastFanoutMatchesPerMember(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  fault.Net
	}{
		{"fault-free", fault.Net{}},
		{"drop-dup-delay", fault.Net{DropRate: 0.1, DupRate: 0.1, DelayRate: 0.1, DelayMax: 30 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := fanoutRig(t, 1, tc.net)
			par := fanoutRig(t, 2, tc.net)
			for id, want := range par.traces {
				got := seq.traces[id]
				if len(got) != len(want) {
					t.Fatalf("node %d: %d receives sequentially, %d per member", id, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("node %d receive %d: %q sequentially, %q per member", id, i, got[i], want[i])
					}
				}
				if seq.stats[id] != par.stats[id] {
					t.Fatalf("node %d stats: %+v sequentially, %+v per member", id, seq.stats[id], par.stats[id])
				}
			}

			// The rig must reach every case it is built for.
			if seq.stats[fanSlow].MsgsDropped == 0 {
				t.Error("node 4's receive buffer never overflowed")
			}
			if seq.stats[fanCrashed].MsgsLost == 0 {
				t.Error("node 5 lost nothing while Lose-crashed")
			}
			// Tag 31 left at 3 ms, before node 8 subscribed; tag 32 at 3.1 ms.
			if late := seq.traces[fanLate]; len(late) == 0 || !strings.HasSuffix(late[0], " tag 32") && tc.net.DropRate == 0 {
				t.Errorf("node 8 received %q first, want the frame sent at 3.1 ms", late)
			}
			for _, line := range seq.traces[fanLate] {
				if tag, _ := strconv.Atoi(line[strings.LastIndex(line, " ")+1:]); tag%zeroByte < 32 {
					t.Errorf("node 8 received %q, sent before it subscribed", line)
				}
			}
			if split(seq.traces[fanTCPDst], seq.traces[1]) == 0 {
				t.Error("node 2's busy in-link never delayed a multicast frame")
			}
			if seq.events >= par.events {
				t.Errorf("sequential run executed %d events, per-member run %d: no multicast was grouped", seq.events, par.events)
			}
		})
	}
}

// split counts the frames from the multicast sender that two nodes'
// traces receive at different instants.
func split(a, b []string) int {
	at := make(map[string]string)
	for _, line := range a {
		if i := strings.Index(line, " from n0 "); i > 0 {
			at[line[i:]] = line[:i]
		}
	}
	n := 0
	for _, line := range b {
		if i := strings.Index(line, " from n0 "); i > 0 && at[line[i:]] != "" && at[line[i:]] != line[:i] {
			n++
		}
	}
	return n
}

// fanoutCluster is one sender (returned env) and 8 idle subscribers of
// group 1.
func fanoutCluster() (*LAN, *proto.Env) {
	l := New(DefaultConfig(), 1)
	for i := 1; i <= 8; i++ {
		l.AddNode(proto.NodeID(i), &sink{})
		l.Subscribe(1, proto.NodeID(i))
	}
	env := new(proto.Env)
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) { *env = e }})
	l.Start()
	return l, env
}

// TestMulticastFanoutEventCount: a frame to 8 idle subscribers costs two
// kernel events — one arrival and one delivery for all of them — where
// per-member scheduling costs 16.
func TestMulticastFanoutEventCount(t *testing.T) {
	l, env := fanoutCluster()
	const frames = 50
	s0 := l.Sim.Steps()
	for i := 0; i < frames; i++ {
		(*env).Multicast(1, proto.Raw{Bytes: 8 << 10})
		l.Run(time.Millisecond)
	}
	if got := l.Sim.Steps() - s0; got != 2*frames {
		t.Fatalf("%d frames to 8 subscribers took %d events, want %d", frames, got, 2*frames)
	}
	for i := 1; i <= 8; i++ {
		if s := l.Node(proto.NodeID(i)).Handler().(*sink); s.msgs != frames {
			t.Fatalf("subscriber %d received %d of %d frames", i, s.msgs, frames)
		}
	}
}

// TestMulticastFanoutAllocFree: a steady-state multicast frame, from send
// to its 8 deliveries, allocates nothing.
func TestMulticastFanoutAllocFree(t *testing.T) {
	l, env := fanoutCluster()
	var msg proto.Message = proto.Raw{Bytes: 8 << 10}
	frame := func() {
		(*env).Multicast(1, msg)
		l.Run(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		frame()
	}
	if allocs := testing.AllocsPerRun(200, frame); allocs != 0 {
		t.Fatalf("%.2f allocations per multicast frame, want 0", allocs)
	}
}

// TestMulticastFanoutFlushesBeforeLoopback: the loopback is a scheduling
// call of its own, so a multicast whose sender is a member between others
// ends the open run before it. The CPU cost is tuned so that the sender's
// loopback delivery and every member's in-link arrival fall at one instant,
// where the kernel must run the members before the sender as one event,
// then the loopback, then the member after it.
func TestMulticastFanoutFlushesBeforeLoopback(t *testing.T) {
	const size = 1000
	cfg := DefaultConfig()
	tx := txTime(size, cfg.Bandwidth)
	cfg.CPUPerMsg = 2*tx + cfg.Latency - size*cfg.CPUPerByte
	l := New(cfg, 1)
	var env proto.Env
	for _, id := range []proto.NodeID{1, 2, 5, 7} {
		if id == 5 {
			l.AddNode(id, &proto.HandlerFunc{OnStart: func(e proto.Env) { env = e }})
		} else {
			l.AddNode(id, &sink{})
		}
		l.Subscribe(1, id)
	}
	var kinds []uint8
	var at []time.Duration
	l.Sim.SetDispatcher(func(ev sim.TypedEvent) {
		kinds, at = append(kinds, ev.Kind), append(at, l.Sim.Now())
		l.dispatch(ev)
	})
	l.Start()
	env.Multicast(1, proto.Raw{Bytes: size})
	l.Run(time.Millisecond)
	want := []uint8{evUDPArriveFan, evNodeDeliver, evUDPArrive}
	if len(kinds) < 3 || at[0] != at[2] || !slices.Equal(kinds[:3], want) {
		t.Fatalf("first events %v at %v, want kinds %v at one instant", kinds, at, want)
	}
}
