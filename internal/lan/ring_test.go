package lan

import (
	"testing"
	"time"

	"repro/internal/proto"
)

// TestConnRingWraps: interleaved bursts and drains cycle the ring buffer's
// cursors through wrap-around and growth; FIFO order must survive both.
func TestConnRingWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TCPBuf = 16 << 10 // small window keeps a standing queue
	l := New(cfg, 1)
	var got []int64
	l.AddNode(1, &proto.HandlerFunc{OnReceive: func(_ proto.NodeID, m proto.Message) {
		got = append(got, m.(proto.Raw).Tag)
	}})
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(env proto.Env) {
		tag := int64(0)
		var burst func()
		burst = func() {
			for i := 0; i < 10; i++ {
				env.Send(1, proto.Raw{Bytes: 4 << 10, Tag: tag})
				tag++
			}
			if tag < 400 {
				env.After(3*time.Millisecond, burst)
			}
		}
		burst()
	}})
	l.Start()
	l.Run(5 * time.Second)
	if len(got) != 400 {
		t.Fatalf("received %d of 400", len(got))
	}
	for i, tag := range got {
		if tag != int64(i) {
			t.Fatalf("FIFO violated at %d: tag %d", i, tag)
		}
	}
	// The standing queue never exceeds one burst, so the ring must not have
	// grown past one doubling: cursors wrapped instead.
	c := l.Node(0).conns[1]
	if len(c.buf) > 32 {
		t.Fatalf("ring grew to %d slots for a 10-deep standing queue", len(c.buf))
	}
}

// TestMemberCacheInvalidation: subscribing and unsubscribing mid-run must be
// visible to the next Multicast (the group's member list is replaced).
func TestMemberCacheInvalidation(t *testing.T) {
	l := New(DefaultConfig(), 1)
	a, b := &sink{}, &sink{}
	l.AddNode(1, a)
	l.AddNode(2, b)
	l.Subscribe(7, 1)
	var env proto.Env
	l.AddNode(0, &proto.HandlerFunc{OnStart: func(e proto.Env) { env = e }})
	l.Start()

	env.Multicast(7, proto.Raw{Bytes: 100})
	l.Run(10 * time.Millisecond)
	if a.msgs != 1 || b.msgs != 0 {
		t.Fatalf("before subscribe: a=%d b=%d, want 1,0", a.msgs, b.msgs)
	}

	l.Subscribe(7, 2)
	env.Multicast(7, proto.Raw{Bytes: 100})
	l.Run(10 * time.Millisecond)
	if a.msgs != 2 || b.msgs != 1 {
		t.Fatalf("after subscribe: a=%d b=%d, want 2,1", a.msgs, b.msgs)
	}

	l.Unsubscribe(7, 1)
	env.Multicast(7, proto.Raw{Bytes: 100})
	l.Run(10 * time.Millisecond)
	if a.msgs != 2 || b.msgs != 2 {
		t.Fatalf("after unsubscribe: a=%d b=%d, want 2,2", a.msgs, b.msgs)
	}
}
