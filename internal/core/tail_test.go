package core

import (
	"slices"
	"testing"
	"time"
)

func TestTailBatch(t *testing.T) {
	batch := Batch{Vals: []Value{
		{ID: 1, Bytes: 100, Born: 10 * time.Millisecond},
		{ID: 2, Bytes: 200},
		{ID: 3, Bytes: 300, Born: 30 * time.Millisecond},
	}}
	cases := []struct {
		name      string
		sup       []bool
		want      []ValueID
		wantBytes int64
		wantLats  []time.Duration
	}{
		{"no exactly-once check", nil, []ValueID{1, 2, 3}, 600, []time.Duration{90 * time.Millisecond, 70 * time.Millisecond}},
		{"nothing suppressed", []bool{false, false, false}, []ValueID{1, 2, 3}, 600, []time.Duration{90 * time.Millisecond, 70 * time.Millisecond}},
		{"suppressed values leave no mark", []bool{true, false, true}, []ValueID{2}, 200, nil},
		{"all suppressed", []bool{true, true, true}, nil, 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &stubEnv{now: 100 * time.Millisecond}
			var got []ValueID
			var lats []time.Duration
			tail := Tail{Latencies: &lats, Deliver: func(inst int64, v Value) {
				if inst != 7 {
					t.Errorf("Deliver got instance %d, want 7", inst)
				}
				got = append(got, v.ID)
			}}
			tr := NewDelivTrace(0)
			tail.Batch(tr, env, 7, batch, c.sup)
			if !slices.Equal(got, c.want) {
				t.Fatalf("delivered %v, want %v", got, c.want)
			}
			n := int64(len(c.want))
			if tail.DeliveredMsgs != n || tr.Count() != n || tail.DeliveredBytes != c.wantBytes {
				t.Fatalf("counted %d msgs / %d bytes, traced %d; want %d / %d / %d",
					tail.DeliveredMsgs, tail.DeliveredBytes, tr.Count(), n, c.wantBytes, n)
			}
			if !slices.Equal(lats, c.wantLats) || tail.LatencyCount != int64(len(c.wantLats)) {
				t.Fatalf("latencies %v (count %d), want %v", lats, tail.LatencyCount, c.wantLats)
			}
		})
	}
}

// TestTailUntracedUnbornNeedsNoClock: a merger probed outside any
// deployment has no environment; values that need no timestamp must not
// ask for one.
func TestTailUntracedUnbornNeedsNoClock(t *testing.T) {
	var tail Tail
	tail.Value(nil, nil, 0, Value{ID: 1, Bytes: 8})
	if tail.DeliveredMsgs != 1 || tail.LatencyCount != 0 {
		t.Fatalf("counted %d msgs, %d latencies", tail.DeliveredMsgs, tail.LatencyCount)
	}
}

func TestReorder(t *testing.T) {
	b := func(id ValueID) Batch { return Batch{Vals: []Value{{ID: id}}} }
	var r Reorder
	next := int64(5)
	holds := []struct {
		inst int64
		want bool
	}{
		{4, false}, // below the frontier
		{7, true},
		{7, false}, // already held
		{6, true},
	}
	for _, h := range holds {
		if got := r.Hold(next, h.inst, b(ValueID(h.inst))); got != h.want {
			t.Fatalf("Hold(%d) = %v, want %v", h.inst, got, h.want)
		}
	}
	if _, _, ok := r.Take(&next); ok || next != 5 {
		t.Fatalf("Take delivered past the gap at 5 (frontier %d)", next)
	}
	r.Hold(next, 5, b(5))
	for want := int64(5); want <= 7; want++ {
		inst, got, ok := r.Take(&next)
		if !ok || inst != want || got.Vals[0].ID != ValueID(want) || next != want+1 {
			t.Fatalf("Take = instance %d %v ok=%v, frontier %d; want instance %d", inst, got, ok, next, want)
		}
	}
	if _, _, ok := r.Take(&next); ok || r.Len() != 0 {
		t.Fatalf("drained buffer still holds %d", r.Len())
	}
}

// TestTrimQuarantinesOneRound: an array retired by one trim pass is not
// handed out again until the next pass moved the floor.
func TestTrimQuarantinesOneRound(t *testing.T) {
	var gc Trim
	first := gc.Pool.Get(8)
	gc.Report(1, 0)
	if lo, hi, ok := gc.Advance(1); !ok || lo != 0 || hi != 0 {
		t.Fatalf("Advance = [%d,%d] %v, want [0,0] true", lo, hi, ok)
	}
	gc.Retire(first)
	if got := gc.Pool.Get(8); &got[:1][0] == &first[:1][0] {
		t.Fatal("a quarantined array was reused within its own round")
	}
	if _, _, ok := gc.Advance(1); ok {
		t.Fatal("Advance moved the floor without a new report")
	}
	gc.Report(1, 3)
	if lo, hi, ok := gc.Advance(1); !ok || lo != 1 || hi != 3 {
		t.Fatalf("Advance = [%d,%d] %v, want [1,3] true", lo, hi, ok)
	}
	if got := gc.Pool.Get(8); &got[:1][0] != &first[:1][0] {
		t.Fatal("the next round did not recycle the quarantined array")
	}
}
