package proto

import (
	"sync"
	"sync/atomic"
	"testing"
)

// sharedMsg is a minimal receiver-counted message.
type sharedMsg struct {
	Refs
	ids []int64
}

func (m *sharedMsg) Size() int { return 8 * len(m.ids) }
func (m *sharedMsg) Reset()    { m.ids = m.ids[:0] }

func TestSharedPoolReleaseSemantics(t *testing.T) {
	var pool SharedPool[sharedMsg, *sharedMsg]

	// An unarmed message is never reset or pooled, however often it is
	// released (a duplicated datagram, an environment that cannot count).
	u := pool.Get()
	u.ids = append(u.ids, 1, 2)
	pool.Release(u)
	pool.Release(u)
	if len(u.ids) != 2 {
		t.Fatal("unarmed message reset by a release")
	}

	m := pool.Get()
	m.ids = append(m.ids, 1, 2, 3)
	m.Arm(3)
	pool.Release(m)
	pool.Release(m)
	if len(m.ids) != 3 {
		t.Fatal("message reset before its last receiver released it")
	}
	pool.Release(m) // last receiver: resets and pools
	if len(m.ids) != 0 || cap(m.ids) < 3 {
		t.Fatalf("final release left %d ids (cap %d), want 0 with the array kept", len(m.ids), cap(m.ids))
	}

	// Poison takes the final release in place of Reset and the pool.
	var poisoned *sharedMsg
	pool.Poison = func(p *sharedMsg) { poisoned = p }
	p := pool.Get()
	p.ids = append(p.ids, 9)
	p.Arm(1)
	pool.Release(p)
	if poisoned != p || len(p.ids) != 1 {
		t.Fatalf("Poison got %p (want %p), message has %d ids (want 1, not reset)", poisoned, p, len(p.ids))
	}
}

// Receivers on different goroutines (logical processes of a partitioned
// run) release concurrently: exactly one of them is the last.
func TestSharedPoolConcurrentRelease(t *testing.T) {
	const receivers = 8
	var pool SharedPool[sharedMsg, *sharedMsg]
	var finals atomic.Int32
	pool.Poison = func(*sharedMsg) { finals.Add(1) }
	for round := 0; round < 100; round++ {
		m := pool.Get()
		m.Arm(receivers)
		var wg sync.WaitGroup
		wg.Add(receivers)
		for i := 0; i < receivers; i++ {
			go func() {
				defer wg.Done()
				pool.Release(m)
			}()
		}
		wg.Wait()
	}
	if got := finals.Load(); got != 100 {
		t.Fatalf("%d final releases over 100 messages, want exactly one each", got)
	}
}
