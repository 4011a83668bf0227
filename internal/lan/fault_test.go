package lan

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
)

// tagSink records received tags in order.
type tagSink struct {
	tags []int64
}

func (s *tagSink) Start(proto.Env) {}
func (s *tagSink) Receive(_ proto.NodeID, m proto.Message) {
	s.tags = append(s.tags, m.(proto.Raw).Tag)
}

// tcpPump sends `count` tagged messages over TCP at a fixed interval.
type tcpPump struct {
	env      proto.Env
	to       proto.NodeID
	size     int
	interval time.Duration
	count    int
	sent     int
}

func (p *tcpPump) Start(env proto.Env) {
	p.env = env
	p.tick()
}

func (p *tcpPump) tick() {
	if p.sent >= p.count {
		return
	}
	p.env.Send(p.to, proto.Raw{Bytes: p.size, Tag: int64(p.sent)})
	p.sent++
	p.env.After(p.interval, p.tick)
}

func (p *tcpPump) Receive(proto.NodeID, proto.Message) {}

func assertFIFO(t *testing.T, tags []int64, want int) {
	t.Helper()
	if len(tags) != want {
		t.Fatalf("received %d messages, want %d", len(tags), want)
	}
	for i, tag := range tags {
		if tag != int64(i) {
			t.Fatalf("FIFO violated at %d: tag %d", i, tag)
		}
	}
}

// Satellite 1 regression (Lose mode): crash the receiver mid-stream,
// recover, and assert the connection drains — every frame lost to the
// dead process must have returned its window credit, so the sender's
// window is whole after the peer recovers.
func TestLoseCrashReturnsWindowCredit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCPBuf = 64 << 10 // small window so leaked credit wedges quickly
	l := New(cfg, 1)
	r := &tagSink{}
	l.AddNode(1, r)
	l.AddNode(0, &tcpPump{to: 1, size: 8192, interval: 100 * time.Microsecond, count: 300})
	l.InstallFaults(fault.New(1).CrashFor(5*time.Millisecond, 5*time.Millisecond, 1, fault.Lose))
	l.Start()
	l.Run(200 * time.Millisecond)

	c := l.Node(0).conns[1]
	if c.inflight != 0 || c.queued() != 0 {
		t.Fatalf("connection did not drain: inflight=%d queued=%d", c.inflight, c.queued())
	}
	lost := l.Node(1).Stats().MsgsLost
	if lost == 0 {
		t.Fatal("no frames hit the dead process — outage too short to exercise the reset path")
	}
	// Post-recovery traffic flows: the tail of the stream arrived.
	if got := len(r.tags); got == 0 || int64(got)+lost < 300 {
		t.Fatalf("received %d + lost %d < 300 sent", got, lost)
	}
	if r.tags[len(r.tags)-1] != 299 {
		t.Fatalf("stream tail missing: last tag %d, want 299", r.tags[len(r.tags)-1])
	}
}

// Freeze mode: same outage, but nothing is lost — the frozen process's
// socket buffer holds frames (window backpressure stalls the sender) and
// delivers them in order at thaw. A freeze is a freeze however it is
// caused: by SetDown with or without a schedule installed, or by a
// scheduled fault.Freeze crash.
func TestFreezeHoldsFramesAndDeliversInOrder(t *testing.T) {
	const at, down = 5 * time.Millisecond, 10 * time.Millisecond
	for _, tc := range []struct {
		name    string
		sched   *fault.Schedule
		setDown bool
	}{
		{"SetDown without schedule", nil, true},
		{"SetDown with empty schedule", fault.New(1), true},
		{"scheduled Freeze", fault.New(1).CrashFor(at, down, 1, fault.Freeze), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TCPBuf = 64 << 10
			l := New(cfg, 1)
			r := &tagSink{}
			// Slow receiver CPU so the freeze catches frames both before and
			// after their receive-CPU booking (both heldFrame stages).
			l.AddNodeWithConfig(1, r, NodeConfig{CPUScale: 0.05, BandwidthScale: 1})
			l.AddNode(0, &tcpPump{to: 1, size: 8192, interval: 100 * time.Microsecond, count: 300})
			l.InstallFaults(tc.sched)
			l.Start()
			if tc.setDown {
				l.Run(at)
				l.Node(1).SetDown(true)
				l.Run(down)
				l.Node(1).SetDown(false)
			}
			l.Run(2 * time.Second)

			assertFIFO(t, r.tags, 300)
			st := l.Node(1).Stats()
			if st.MsgsLost != 0 || st.MsgsDropped != 0 {
				t.Fatalf("freeze lost traffic: lost=%d dropped=%d", st.MsgsLost, st.MsgsDropped)
			}
			c := l.Node(0).conns[1]
			if c.inflight != 0 || c.queued() != 0 {
				t.Fatalf("connection did not drain after thaw: inflight=%d queued=%d", c.inflight, c.queued())
			}
		})
	}
}

// Satellite 2 regression: a down sender keeps receiving acks (which skip
// pump) while its queue grows; recovery must flush every conn with
// queued messages instead of waiting for the next fresh Send.
func TestRecoveryRepumpsQueuedConns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCPBuf = 16 << 10 // two 8 KB frames in flight at most
	l := New(cfg, 1)
	r := &tagSink{}
	l.AddNode(1, r)
	sender := l.AddNode(0, &proto.HandlerFunc{})
	l.Start()
	env := proto.Env(sender)
	// Fill the window and queue a backlog behind it.
	for i := 0; i < 20; i++ {
		env.Send(1, proto.Raw{Bytes: 8192, Tag: int64(i)})
	}
	// Freeze the sender before the first acks return: acks drain inflight
	// while down, but pump must not run.
	sender.SetDown(true)
	l.Run(50 * time.Millisecond)
	if got := len(r.tags); got >= 20 {
		t.Fatalf("down sender transmitted its whole queue (%d msgs)", got)
	}
	c := sender.conns[1]
	if c.queued() == 0 {
		t.Fatal("test did not create a stalled queue")
	}
	sender.SetDown(false) // recovery must re-pump without a fresh Send
	l.Run(200 * time.Millisecond)
	assertFIFO(t, r.tags, 20)
}

// Satellite 5: timers keep firing while the node is down (documented at
// After), so periodic protocol logic resumes transparently at recovery.
func TestTimersFireWhileDown(t *testing.T) {
	cfg := DefaultConfig()
	l := New(cfg, 1)
	ticks := 0
	var env proto.Env
	var tick func()
	tick = func() {
		ticks++
		env.After(time.Millisecond, tick)
	}
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) {
		env = e
		e.After(time.Millisecond, tick)
	}})
	l.InstallFaults(fault.New(1).CrashFor(10*time.Millisecond, 30*time.Millisecond, 0, fault.Freeze))
	l.Start()
	l.Run(100 * time.Millisecond)
	if ticks < 95 {
		t.Fatalf("timer chain fired %d times in 100 ms, want ~99 (down must not stop timers)", ticks)
	}
}

// Satellite 5: a datagram in flight when the receiver goes down is lost
// (and counted); one in flight when the receiver comes back up is
// delivered. The flip happens between send and arrival in both cases.
func TestDatagramInFlightAcrossDownFlip(t *testing.T) {
	cfg := DefaultConfig() // 50 µs latency
	l := New(cfg, 1)
	r := &tagSink{}
	l.AddNode(1, r)
	var env proto.Env
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) {
		env = e
		// Sent while up; receiver crashes 20 µs later, before arrival.
		e.After(80*time.Microsecond, func() { env.SendUDP(1, proto.Raw{Bytes: 512, Tag: 1}) })
		// Sent while the receiver is down; it restarts before arrival.
		e.After(140*time.Microsecond, func() { env.SendUDP(1, proto.Raw{Bytes: 512, Tag: 2}) })
	}})
	l.InstallFaults(fault.New(1).
		Crash(100*time.Microsecond, 1, fault.Lose).
		Restart(160*time.Microsecond, 1))
	l.Start()
	l.Run(10 * time.Millisecond)

	if len(r.tags) != 1 || r.tags[0] != 2 {
		t.Fatalf("tags = %v, want [2] (msg 1 lost in flight, msg 2 delivered)", r.tags)
	}
	if st := l.Node(1).Stats(); st.MsgsLost != 1 {
		t.Fatalf("MsgsLost = %d, want 1", st.MsgsLost)
	}
}

// Satellite 5: multicast to a partially-down group — up members deliver,
// down members count the frame lost, the sender pays the frame once.
func TestMulticastPartiallyDownGroup(t *testing.T) {
	cfg := DefaultConfig()
	l := New(cfg, 1)
	sinks := make([]*tagSink, 4)
	for i := range sinks {
		sinks[i] = &tagSink{}
		l.AddNode(proto.NodeID(i+1), sinks[i])
		l.Subscribe(1, proto.NodeID(i+1))
	}
	var env proto.Env
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) {
		env = e
		e.After(time.Millisecond, func() { env.Multicast(1, proto.Raw{Bytes: 512, Tag: 7}) })
	}})
	l.InstallFaults(fault.New(1).
		Crash(500*time.Microsecond, 3, fault.Lose).
		Crash(500*time.Microsecond, 4, fault.Freeze).
		Restart(2*time.Millisecond, 3).
		Restart(2*time.Millisecond, 4))
	l.Start()
	l.Run(10 * time.Millisecond)

	for i, s := range sinks[:2] {
		if len(s.tags) != 1 {
			t.Fatalf("up member %d received %d messages, want 1", i+1, len(s.tags))
		}
	}
	// Down members lost the datagram (frozen nodes don't buffer datagrams),
	// and it stays lost after restart.
	for i, s := range sinks[2:] {
		if len(s.tags) != 0 {
			t.Fatalf("down member %d received %d messages, want 0", i+3, len(s.tags))
		}
	}
	if lost := l.Node(3).Stats().MsgsLost + l.Node(4).Stats().MsgsLost; lost != 2 {
		t.Fatalf("lost = %d, want 2 (one per down member)", lost)
	}
	if sent := l.Node(0).Stats().MsgsSent; sent != 1 {
		t.Fatalf("sender MsgsSent = %d, want 1 (multicast pays once)", sent)
	}
}

// A partition holds TCP frames at the sender (lossless) and eats
// datagrams (counted at the sender); healing re-pumps and delivers
// everything in order.
func TestPartitionHoldsTCPAndHeals(t *testing.T) {
	cfg := DefaultConfig()
	l := New(cfg, 1)
	r := &tagSink{}
	l.AddNode(1, r)
	l.AddNode(0, &tcpPump{to: 1, size: 4096, interval: 200 * time.Microsecond, count: 100})
	var env proto.Env
	udpLost := l.AddNode(2, &proto.HandlerFunc{OnStart: func(e proto.Env) {
		env = e
		e.After(10*time.Millisecond, func() { env.SendUDP(1, proto.Raw{Bytes: 512, Tag: 9}) })
	}})
	l.InstallFaults(fault.New(1).Split(5*time.Millisecond, 20*time.Millisecond, 1))
	l.Start()
	l.Run(100 * time.Millisecond)

	assertFIFO(t, r.tags, 100)
	if st := l.Node(0).Stats(); st.MsgsLost != 0 {
		t.Fatalf("TCP across partition lost %d frames; must hold at sender", st.MsgsLost)
	}
	if st := udpLost.Stats(); st.MsgsLost != 1 {
		t.Fatalf("UDP across partition: sender lost = %d, want 1", st.MsgsLost)
	}
	if len(r.tags) == 0 {
		t.Fatal("no delivery after heal")
	}
}

// volatileHandler counts LoseVolatile invocations.
type volatileHandler struct {
	proto.HandlerFunc
	lost int
}

func (h *volatileHandler) LoseVolatile() { h.lost++ }

// A Lose crash discards the node's queued-but-unsent messages and
// invokes proto.VolatileLoser at restart; a Freeze does neither.
func TestLoseCrashClearsQueueAndVolatileState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCPBuf = 8 << 10 // one frame in flight; the rest queues
	l := New(cfg, 1)
	r := &tagSink{}
	l.AddNode(1, r)
	h := &volatileHandler{}
	sender := l.AddNode(0, h)
	l.InstallFaults(fault.New(1).
		Crash(2*time.Millisecond, 0, fault.Lose).
		Restart(5*time.Millisecond, 0))
	l.Start()
	env := proto.Env(sender)
	for i := 0; i < 10; i++ {
		env.Send(1, proto.Raw{Bytes: 8192, Tag: int64(i)})
	}
	l.Run(50 * time.Millisecond)

	if h.lost != 1 {
		t.Fatalf("LoseVolatile called %d times, want 1", h.lost)
	}
	if st := sender.Stats(); st.MsgsLost == 0 {
		t.Fatal("queued messages not counted lost on Lose restart")
	}
	// The stream has a gap (queue was dropped) but the conn is healthy.
	c := sender.conns[1]
	if c.queued() != 0 || c.inflight != 0 {
		t.Fatalf("conn not clean after Lose restart: queued=%d inflight=%d", c.queued(), c.inflight)
	}
	if len(r.tags) >= 10 {
		t.Fatalf("all %d messages delivered; Lose crash should have dropped the queue", len(r.tags))
	}
}

// Injected datagram faults: DropRate=1 loses everything (counted at the
// sender), DupRate=1 doubles deliveries, delay shifts arrival later.
func TestNetFaultDropDupDelay(t *testing.T) {
	run := func(net fault.Net) (*tagSink, Stats, Stats) {
		cfg := DefaultConfig()
		l := New(cfg, 1)
		r := &tagSink{}
		l.AddNode(1, r)
		var env proto.Env
		snd := l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) {
			env = e
			e.After(time.Millisecond, func() { env.SendUDP(1, proto.Raw{Bytes: 512, Tag: 3}) })
		}})
		l.InstallFaults(fault.New(1).WithNet(net))
		l.Start()
		l.Run(10 * time.Millisecond)
		return r, snd.Stats(), l.Node(1).Stats()
	}

	r, snd, _ := run(fault.Net{DropRate: 1})
	if len(r.tags) != 0 || snd.MsgsLost != 1 {
		t.Fatalf("DropRate=1: delivered=%d senderLost=%d", len(r.tags), snd.MsgsLost)
	}
	r, _, rcv := run(fault.Net{DupRate: 1})
	if len(r.tags) != 2 || rcv.MsgsRecv != 2 {
		t.Fatalf("DupRate=1: delivered=%d recv=%d, want 2", len(r.tags), rcv.MsgsRecv)
	}
	r, _, _ = run(fault.Net{DelayRate: 1, DelayMax: 2 * time.Millisecond})
	if len(r.tags) != 1 {
		t.Fatalf("DelayRate=1: delivered=%d, want 1", len(r.tags))
	}
}

// A network that duplicates datagrams cannot count a multicast's
// consumers: receiver-counted messages (proto.SharedPool) must fall back
// to the garbage collector there, or the duplicate's second release
// recycles the message under a receiver that has not read it yet.
func TestGroupSizeUncountableUnderDuplication(t *testing.T) {
	size := func(net fault.Net) int {
		l := New(DefaultConfig(), 1)
		n := l.AddNode(0, &proto.HandlerFunc{})
		l.AddNode(1, &proto.HandlerFunc{})
		l.Subscribe(7, 0)
		l.Subscribe(7, 1)
		l.InstallFaults(fault.New(1).WithNet(net))
		return n.GroupSize(7)
	}
	if got := size(fault.Net{DropRate: 0.5}); got != 2 {
		t.Errorf("GroupSize under drop-only faults = %d, want 2", got)
	}
	if got := size(fault.Net{DupRate: 0.01}); got != 0 {
		t.Errorf("GroupSize under duplicating faults = %d, want 0 (uncountable)", got)
	}
}

// Same seed, same schedule: two faulted runs are byte-equivalent
// (identical delivery sequences and counters).
func TestFaultScheduleReplaysDeterministically(t *testing.T) {
	run := func() ([]int64, Stats) {
		l := New(DefaultConfig(), 7)
		r := &tagSink{}
		l.AddNode(1, r)
		l.AddNode(0, &sender{to: []proto.NodeID{1}, size: 2048, interval: 100 * time.Microsecond, stop: 50 * time.Millisecond})
		l.InstallFaults(fault.New(7).
			WithNet(fault.Net{DropRate: 0.15, DupRate: 0.02, DelayRate: 0.1, DelayMax: time.Millisecond}).
			CrashFor(10*time.Millisecond, 5*time.Millisecond, 1, fault.Lose))
		l.Start()
		l.Run(100 * time.Millisecond)
		return append([]int64(nil), r.tags...), l.Node(1).Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if len(t1) != len(t2) || s1 != s2 {
		t.Fatalf("faulted replay diverged: %d vs %d deliveries, %+v vs %+v", len(t1), len(t2), s1, s2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d diverged", i)
		}
	}
	if s1.MsgsLost == 0 {
		t.Fatal("schedule injected no loss; test is vacuous")
	}
}

// Datagram drop draws come from per-node streams, so a lossy network runs
// partitioned with results identical to its sequential run.
func TestLossyConfigPartitionEquivalence(t *testing.T) {
	run := func(nLP int) ([]int64, [2]Stats) {
		l := New(DefaultConfig(), 3)
		r := &tagSink{}
		l.AddNode(1, r)
		l.AddNode(0, &sender{to: []proto.NodeID{1}, size: 2048, interval: 100 * time.Microsecond, stop: 20 * time.Millisecond})
		if nLP > 1 {
			if !l.Partition(nLP, func(id proto.NodeID) int { return int(id) % nLP }) {
				t.Fatalf("Partition declined lossy config at nLP=%d", nLP)
			}
		}
		l.InstallFaults(fault.New(3).WithNet(fault.Net{DropRate: 0.2}))
		l.Start()
		l.Run(50 * time.Millisecond)
		return append([]int64(nil), r.tags...), [2]Stats{l.Node(0).Stats(), l.Node(1).Stats()}
	}
	seqTags, seqStats := run(1)
	if seqStats[0].MsgsLost == 0 {
		t.Fatal("no loss at DropRate=0.2; test is vacuous")
	}
	for _, nLP := range []int{2, 4} {
		tags, stats := run(nLP)
		if len(tags) != len(seqTags) || stats != seqStats {
			t.Fatalf("nLP=%d diverged from sequential: %d vs %d deliveries, %+v vs %+v",
				nLP, len(tags), len(seqTags), stats, seqStats)
		}
	}
}
