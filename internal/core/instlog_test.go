package core

import (
	"math/rand"
	"testing"
)

func TestInstLogBasics(t *testing.T) {
	var l InstLog[int]
	if l.Len() != 0 || l.Has(0) {
		t.Fatal("zero value not empty")
	}
	v, existed := l.Put(7)
	if existed || v == nil {
		t.Fatal("first Put must report absent")
	}
	*v = 42
	if got, ok := l.Get(7); !ok || *got != 42 {
		t.Fatalf("Get(7) = %v, %v", got, ok)
	}
	if v2, existed := l.Put(7); !existed || *v2 != 42 {
		t.Fatal("second Put must return the live record")
	}
	if !l.Delete(7) || l.Has(7) || l.Len() != 0 {
		t.Fatal("Delete failed")
	}
	if l.Delete(7) {
		t.Fatal("double Delete must report false")
	}
}

// TestInstLogWrapAround drives a sliding window of live instances far past
// the ring size several times over: every slot is reused with many
// different instance numbers, and stale slot contents must never surface.
func TestInstLogWrapAround(t *testing.T) {
	var l InstLog[int64]
	const window = 24 // wider than the minimum ring, forcing one growth
	for inst := int64(0); inst < 10_000; inst++ {
		v, existed := l.Put(inst)
		if existed {
			t.Fatalf("inst %d: fresh instance reported as existing", inst)
		}
		*v = inst * 3
		if inst >= window {
			trim := inst - window
			if got, ok := l.Get(trim); !ok || *got != trim*3 {
				t.Fatalf("inst %d: trim target %d corrupted: %v %v", inst, trim, got, ok)
			}
			if !l.Delete(trim) {
				t.Fatalf("Delete(%d) failed", trim)
			}
		}
		if l.Len() > window+1 {
			t.Fatalf("Len %d exceeds window", l.Len())
		}
		// An instance far outside the live window must read as absent even
		// though its slot is occupied by a live neighbor.
		if l.Has(inst + 1<<30) {
			t.Fatal("aliased instance reported present")
		}
	}
}

// TestInstLogOutOfOrderTrim deletes entries in arbitrary order (the
// coordinator's open-instance window decides out of order) and re-inserts
// later instances into the recycled slots.
func TestInstLogOutOfOrderTrim(t *testing.T) {
	var l InstLog[string]
	for inst := int64(0); inst < 64; inst++ {
		v, _ := l.Put(inst)
		*v = "v"
	}
	for _, inst := range []int64{33, 7, 63, 0, 12, 48} {
		if !l.Delete(inst) {
			t.Fatalf("Delete(%d)", inst)
		}
	}
	if l.Len() != 58 {
		t.Fatalf("Len = %d, want 58", l.Len())
	}
	for _, inst := range []int64{33, 7, 63, 0, 12, 48} {
		if l.Has(inst) {
			t.Fatalf("deleted %d still present", inst)
		}
	}
	// Recycle the freed slots with new instances one full ring later.
	for _, inst := range []int64{33, 7, 63, 0, 12, 48} {
		later := inst + 128
		v, existed := l.Put(later)
		if existed {
			t.Fatalf("Put(%d) found stale entry", later)
		}
		*v = "later"
		if got, _ := l.Get(later); *got != "later" {
			t.Fatalf("Get(%d) corrupted", later)
		}
	}
}

// TestInstLogSparseGrowth inserts two live instances far apart — the ring
// must double until both fit without evicting either.
func TestInstLogSparseGrowth(t *testing.T) {
	var l InstLog[int]
	a, _ := l.Put(3)
	*a = 1
	b, _ := l.Put(3 + 4096) // collides with 3 in any ring smaller than 8K
	*b = 2
	if got, ok := l.Get(3); !ok || *got != 1 {
		t.Fatal("low instance lost during growth")
	}
	if got, ok := l.Get(3 + 4096); !ok || *got != 2 {
		t.Fatal("high instance lost during growth")
	}
}

func TestInstLogRange(t *testing.T) {
	var l InstLog[int]
	want := map[int64]int{2: 20, 5: 50, 9: 90}
	for inst, val := range want {
		v, _ := l.Put(inst)
		*v = val
	}
	got := map[int64]int{}
	l.Range(func(inst int64, v *int) bool {
		got[inst] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for inst, val := range want {
		if got[inst] != val {
			t.Fatalf("Range[%d] = %d, want %d", inst, got[inst], val)
		}
	}
	n := 0
	l.Range(func(int64, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Range visited %d", n)
	}
}

// TestInstLogTrimToEmptyReleasesRing: the ring doubles to the peak live
// span, and a Trim that leaves the log empty gives it back, after which the
// log behaves as the zero value and the next Put regrows from the minimum.
func TestInstLogTrimToEmptyReleasesRing(t *testing.T) {
	var l InstLog[int64]
	for inst := int64(0); inst < 1000; inst++ {
		v, _ := l.Put(inst)
		*v = inst
	}
	if len(l.slots) < 1000 {
		t.Fatalf("ring holds %d slots for 1000 live instances", len(l.slots))
	}
	l.Trim(0, 998, nil)
	if l.Len() != 1 || l.slots == nil {
		t.Fatalf("Len=%d slots=%d: a log that is not empty must keep its ring", l.Len(), len(l.slots))
	}
	dropped := 0
	l.Trim(0, 999, func(inst int64, v *int64) { dropped++ })
	if dropped != 1 || l.Len() != 0 || l.slots != nil {
		t.Fatalf("dropped=%d Len=%d slots=%d, want the last entry dropped and the ring released", dropped, l.Len(), len(l.slots))
	}
	if _, ok := l.Get(999); ok || l.Has(5) || l.Delete(5) {
		t.Fatal("released log still answers for a trimmed instance")
	}
	l.Range(func(int64, *int64) bool { t.Fatal("Range visited an entry of a released log"); return false })
	l.Trim(0, 2000, func(int64, *int64) { t.Fatal("Trim dropped an entry of a released log") })
	v, existed := l.Put(1000)
	if existed || len(l.slots) != instLogMinSize {
		t.Fatalf("Put after release: existed=%v slots=%d, want a fresh ring of %d", existed, len(l.slots), instLogMinSize)
	}
	*v = 7
	if got, ok := l.Get(1000); !ok || *got != 7 || l.Len() != 1 {
		t.Fatal("Put after release did not round-trip")
	}
}

// TestInstLogSteadyTrimAllocFree: a log that never empties keeps its ring,
// so the sliding Put+Trim of a loaded protocol allocates nothing.
func TestInstLogSteadyTrimAllocFree(t *testing.T) {
	var l InstLog[int64]
	const window = 40
	next := int64(0)
	for ; next < window; next++ {
		l.Put(next)
	}
	slots := len(l.slots)
	round := func() {
		for i := 0; i < 8; i++ {
			l.Put(next)
			next++
		}
		l.Trim(next-window-8, next-window-1, nil)
	}
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Fatalf("steady Put+Trim allocates %.1f per round", allocs)
	}
	if l.Len() != window || len(l.slots) != slots {
		t.Fatalf("Len=%d slots=%d, want %d and %d", l.Len(), len(l.slots), window, slots)
	}
}

// TestInstLogModel drives random put / delete / trim operations over a
// sliding span of instances against a map, with trims that regularly empty
// the log, so release and regrowth are exercised between ordinary use.
func TestInstLogModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l InstLog[int64]
		model := map[int64]int64{}
		base, emptied := int64(0), 0
		for op := 0; op < 5000; op++ {
			inst := base + rng.Int63n(96)
			switch r := rng.Intn(20); {
			case r < 10:
				v, existed := l.Put(inst)
				if _, want := model[inst]; existed != want {
					t.Fatalf("seed %d op %d: Put(%d) existed=%v, model says %v", seed, op, inst, existed, want)
				}
				*v = int64(op)
				model[inst] = int64(op)
			case r < 14:
				_, want := model[inst]
				if got := l.Delete(inst); got != want {
					t.Fatalf("seed %d op %d: Delete(%d)=%v, model says %v", seed, op, inst, got, want)
				}
				delete(model, inst)
			case r < 18: // trim a prefix of the span, as a GC round does
				hi := base + rng.Int63n(48)
				l.Trim(base, hi, func(i int64, v *int64) {
					if want, ok := model[i]; !ok || want != *v {
						t.Fatalf("seed %d op %d: Trim dropped %d=%d, model has %d (%v)", seed, op, i, *v, want, ok)
					}
					delete(model, i)
				})
				base = hi + 1
			default: // everything applied: the trim that empties the log
				l.Trim(base, base+96, nil)
				clear(model)
				base += 97
				if l.slots != nil {
					t.Fatalf("seed %d op %d: a trim that emptied the log kept its ring", seed, op)
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len=%d, model has %d", seed, op, l.Len(), len(model))
			}
			if l.Len() == 0 && l.slots == nil {
				emptied++
			}
			want, has := model[inst]
			if got, ok := l.Get(inst); ok != has || (ok && *got != want) {
				t.Fatalf("seed %d op %d: Get(%d) disagrees with the model", seed, op, inst)
			}
		}
		seen := 0
		l.Range(func(i int64, v *int64) bool {
			if want, ok := model[i]; !ok || want != *v {
				t.Fatalf("seed %d: Range yields %d=%d, model has %d (%v)", seed, i, *v, want, ok)
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("seed %d: Range visited %d of %d entries", seed, seen, len(model))
		}
		if emptied < 50 {
			t.Fatalf("seed %d: the log was released only %d times; the model test lost its point", seed, emptied)
		}
	}
}

func TestValueSlab(t *testing.T) {
	var s FIFO[Value]
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			s.Push(Value{ID: ValueID(round*100 + i)})
		}
		for i := 0; i < 100; i++ {
			if got := s.At(i).ID; got != ValueID(round*100+i) {
				t.Fatalf("round %d: At(%d) = %d", round, i, got)
			}
		}
		// Drain in two unequal steps to exercise partial pops.
		s.PopFront(37)
		if s.Len() != 63 || s.At(0).ID != ValueID(round*100+37) {
			t.Fatalf("round %d: partial pop broken", round)
		}
		s.PopFront(63)
		if s.Len() != 0 {
			t.Fatalf("round %d: slab not empty", round)
		}
	}
}

func TestBatchPoolRecycles(t *testing.T) {
	var p BatchPool
	s := p.Get(10)
	if cap(s) < 10 || len(s) != 0 {
		t.Fatalf("Get(10): len %d cap %d", len(s), cap(s))
	}
	s = append(s, Value{ID: 1, Payload: "x"})
	p.Put(s)
	s2 := p.Get(9) // same class: must reuse the recycled array
	if cap(s2) != cap(s) || &s2[:1][0] != &s[:1][0] {
		t.Fatal("pool did not recycle the array")
	}
	if s2[:1][0].Payload != nil {
		t.Fatal("recycled array not cleared")
	}
	// A bigger request must not get the small array.
	s3 := p.Get(cap(s) + 1)
	if cap(s3) < cap(s)+1 {
		t.Fatal("Get returned undersized array")
	}
}
