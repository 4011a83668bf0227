package lan

import (
	"testing"
	"time"

	"repro/internal/proto"
)

// benchTicker multicasts (or unicasts over TCP) one pre-built message per
// tick. The tick closure and the message are created once in Start so that
// steady-state allocations measured by the benchmarks are the substrate's
// own, not the traffic generator's.
type benchTicker struct {
	group    proto.GroupID
	to       proto.NodeID
	useMcast bool
	size     int
	interval time.Duration
}

func (t *benchTicker) Start(env proto.Env) {
	var msg proto.Message = proto.Raw{Bytes: t.size}
	var tick func()
	tick = func() {
		if t.useMcast {
			env.Multicast(t.group, msg)
		} else {
			env.Send(t.to, msg)
		}
		env.After(t.interval, tick)
	}
	tick()
}

func (t *benchTicker) Receive(proto.NodeID, proto.Message) {}

// runSteadyState advances the simulation in 1 ms virtual slices for b.N
// iterations and reports simulated events and frames sent by node 0 (the
// traffic generator) per wall-clock second: their ratio is the kernel
// events one frame costs.
func runSteadyState(b *testing.B, l *LAN) {
	b.Helper()
	l.Start()
	l.Run(50 * time.Millisecond) // warm up pools, buffers and windows
	b.ReportAllocs()
	b.ResetTimer()
	s0, f0 := l.Sim.Steps(), l.Node(0).Stats().MsgsSent
	start := time.Now()
	for n := 0; n < b.N; n++ {
		l.Run(time.Millisecond)
	}
	secs := time.Since(start).Seconds()
	b.ReportMetric(float64(l.Sim.Steps()-s0)/secs, "events/s")
	b.ReportMetric(float64(l.Node(0).Stats().MsgsSent-f0)/secs, "frames/s")
}

// BenchmarkMulticastSteadyState is the fig3.x hot path: one sender
// saturating a multicast group of 8 receivers with 8 KB datagrams.
func BenchmarkMulticastSteadyState(b *testing.B) {
	l := New(DefaultConfig(), 1)
	for i := 1; i <= 8; i++ {
		l.AddNode(proto.NodeID(i), &sink{})
		l.Subscribe(1, proto.NodeID(i))
	}
	l.AddNode(0, &benchTicker{useMcast: true, group: 1, size: 8 << 10, interval: 80 * time.Microsecond})
	runSteadyState(b, l)
}

// BenchmarkTCPSteadyState is the uring/pipeline hot path: a windowed
// reliable stream (transmit, deliver, ack per message).
func BenchmarkTCPSteadyState(b *testing.B) {
	l := New(DefaultConfig(), 1)
	l.AddNode(1, &sink{})
	l.AddNode(0, &benchTicker{to: 1, size: 8 << 10, interval: 70 * time.Microsecond})
	runSteadyState(b, l)
}

// BenchmarkUDPSteadyState is the datagram path without switch replication.
func BenchmarkUDPSteadyState(b *testing.B) {
	l := New(DefaultConfig(), 1)
	l.AddNode(1, &sink{})
	t := &benchTicker{to: 1, size: 8 << 10, interval: 70 * time.Microsecond}
	h := &proto.HandlerFunc{OnStart: func(env proto.Env) {
		var msg proto.Message = proto.Raw{Bytes: t.size}
		var tick func()
		tick = func() {
			env.SendUDP(t.to, msg)
			env.After(t.interval, tick)
		}
		tick()
	}}
	l.AddNode(0, h)
	runSteadyState(b, l)
}
