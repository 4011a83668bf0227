package core

// InstLog is a ring-indexed log of per-instance protocol records. Every
// ordering protocol in this repository keeps several tables keyed by
// consensus instance (acceptor stores, coordinator open-instance windows,
// learner reorder buffers). Instances are dense — they are numbered
// 0,1,2,... by a single coordinator — and are trimmed roughly in order
// (delivery frontiers and garbage-collection floors only move forward), so
// a map is the wrong structure: it boxes every record, churns buckets at
// megahertz rates and was the protocol layer's main allocation source.
//
// InstLog instead direct-maps instance i to slot i&(len-1) of a
// power-of-two slot array. Because the live window [lowest retained,
// highest seen] is narrow, collisions are rare; when two live instances do
// collide the array doubles until the window fits, exactly like a slice
// append. All operations are O(1), amortized allocation-free, and store
// records in place — no per-entry boxing.
//
// The zero value is an empty log ready to use.
type InstLog[T any] struct {
	slots []logSlot[T]
	n     int
}

type logSlot[T any] struct {
	inst int64
	used bool
	val  T
}

const instLogMinSize = 16

// Len returns the number of live entries.
func (l *InstLog[T]) Len() int { return l.n }

// Get returns the entry for inst, or (nil, false) when absent. The pointer
// is valid until the entry is deleted (slots are recycled), so callers that
// need the record past a Delete must copy it out first.
func (l *InstLog[T]) Get(inst int64) (*T, bool) {
	if len(l.slots) == 0 {
		return nil, false
	}
	s := &l.slots[uint64(inst)&uint64(len(l.slots)-1)]
	if !s.used || s.inst != inst {
		return nil, false
	}
	return &s.val, true
}

// Has reports whether inst is present.
func (l *InstLog[T]) Has(inst int64) bool {
	_, ok := l.Get(inst)
	return ok
}

// Put returns the entry for inst, inserting a zero record if absent.
// The bool reports whether the entry already existed (mirroring map
// lookup-or-insert).
func (l *InstLog[T]) Put(inst int64) (*T, bool) {
	for {
		if len(l.slots) == 0 {
			l.grow()
			continue
		}
		s := &l.slots[uint64(inst)&uint64(len(l.slots)-1)]
		if s.used {
			if s.inst == inst {
				return &s.val, true
			}
			// A live instance from another window era occupies the slot:
			// the ring is too small for the current live span.
			l.grow()
			continue
		}
		s.inst = inst
		s.used = true
		l.n++
		return &s.val, false
	}
}

// Delete removes inst, zeroing its record so references (batch payloads,
// timers) are released immediately. It reports whether the entry existed.
func (l *InstLog[T]) Delete(inst int64) bool {
	if len(l.slots) == 0 {
		return false
	}
	s := &l.slots[uint64(inst)&uint64(len(l.slots)-1)]
	if !s.used || s.inst != inst {
		return false
	}
	var zero T
	s.val = zero
	s.used = false
	l.n--
	return true
}

// Trim deletes every entry in the inclusive instance range [lo, hi],
// invoking drop (when non-nil) on each live record just before removal so
// the owner can release or recycle what the record holds. It is the
// shared back half of the learner-version garbage collection: a
// VersionTracker.Advance range maps straight onto it.
func (l *InstLog[T]) Trim(lo, hi int64, drop func(inst int64, v *T)) {
	for inst := lo; inst <= hi; inst++ {
		if v, ok := l.Get(inst); ok {
			if drop != nil {
				drop(inst, v)
			}
			l.Delete(inst)
		}
	}
	if l.n == 0 {
		// The ring doubled to the peak live span; an emptied log gives it
		// back and the next Put regrows from instLogMinSize, so occupancy
		// follows the live span instead of its high-water mark.
		l.slots = nil
	}
}

// Range calls f for every live entry until f returns false. Iteration
// order is slot order — deterministic for a given insertion history, unlike
// a map — but not instance order; callers that need instance order (none of
// the protocols do on their hot paths) must sort.
func (l *InstLog[T]) Range(f func(inst int64, v *T) bool) {
	for i := range l.slots {
		if l.slots[i].used {
			if !f(l.slots[i].inst, &l.slots[i].val) {
				return
			}
		}
	}
}

// grow doubles the slot array and re-places live entries. Re-placement
// cannot collide forever: doubling strictly widens the window the ring can
// hold, and the live span is finite.
func (l *InstLog[T]) grow() {
	size := len(l.slots) * 2
	if size == 0 {
		size = instLogMinSize
	}
retry:
	next := make([]logSlot[T], size)
	mask := uint64(size - 1)
	for i := range l.slots {
		if !l.slots[i].used {
			continue
		}
		d := &next[uint64(l.slots[i].inst)&mask]
		if d.used {
			size *= 2
			goto retry
		}
		*d = l.slots[i]
	}
	l.slots = next
}
