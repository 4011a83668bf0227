package core

import (
	"time"

	"repro/internal/proto"
)

// Tail is the last step of every learner: a value that reached its turn in
// the delivery order is folded into the delivery trace, counted, and
// handed to the application. Protocols embed one by value, which is what
// promotes Deliver and the counters onto every agent, replica and merger;
// the harnesses read throughput and latency of any protocol from here.
type Tail struct {
	// Deliver is invoked for every value, in delivery order.
	Deliver DeliverFunc
	// DeliveredBytes/DeliveredMsgs count delivered application payload.
	DeliveredBytes int64
	DeliveredMsgs  int64
	// LatencySum accumulates propose-to-deliver latency over the
	// LatencyCount delivered values whose Born field is set.
	LatencySum   time.Duration
	LatencyCount int64
	// Latencies, if non-nil, additionally records each such latency.
	Latencies *[]time.Duration
}

// Value delivers v as part of instance inst. tr is the learner's delivery
// trace (nil: none); pure observation. env is only asked the time, and
// only for a traced or born-stamped value.
func (t *Tail) Value(tr *DelivTrace, env proto.Env, inst int64, v Value) {
	var now time.Duration
	if tr != nil || v.Born != 0 {
		now = env.Now()
	}
	if tr != nil {
		tr.Note(now, inst, v)
	}
	t.DeliveredBytes += int64(v.Bytes)
	t.DeliveredMsgs++
	if v.Born != 0 {
		lat := now - v.Born
		t.LatencySum += lat
		t.LatencyCount++
		if t.Latencies != nil {
			*t.Latencies = append(*t.Latencies, lat)
		}
	}
	if t.Deliver != nil {
		t.Deliver(inst, v)
	}
}

// Batch delivers the values of instance inst's batch. sup, when non-nil,
// marks the values an exactly-once check suppressed: they are not traced,
// counted or delivered.
func (t *Tail) Batch(tr *DelivTrace, env proto.Env, inst int64, b Batch, sup []bool) {
	for i, v := range b.Vals {
		if sup == nil || !sup[i] {
			t.Value(tr, env, inst, v)
		}
	}
}

// Reorder is a learner's reorder buffer: decided batches arrive keyed by
// instance, in any order and possibly more than once, and leave in
// instance order. The delivery frontier stays with the caller, which
// reports it as its version and asks for retransmissions from it.
type Reorder struct{ InstLog[Batch] }

// Hold buffers b as instance inst and reports whether it was news:
// instances below the frontier next, or already held, are duplicates.
func (r *Reorder) Hold(next, inst int64, b Batch) bool {
	if inst < next {
		return false
	}
	e, held := r.Put(inst)
	if !held {
		*e = b
	}
	return !held
}

// Take removes and returns the batch at the frontier *next, if held, and
// advances the frontier past it.
func (r *Reorder) Take(next *int64) (inst int64, b Batch, ok bool) {
	if e, held := r.Get(*next); held {
		inst, b, ok = *next, *e, true
		r.Delete(inst)
		*next++
	}
	return
}
