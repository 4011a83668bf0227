// Package core holds the value and delivery types shared by every ordering
// protocol in the repository (Paxos, Ring Paxos, Multi-Ring Paxos and the
// baseline broadcast protocols), and the parts they are all built from:
// Batcher, Tail and Reorder, Trim, InstLog.
package core

import "time"

// ValueID uniquely identifies a proposed value. Ring Paxos runs consensus on
// value ids while payloads travel separately (dissertation §3.3.2).
type ValueID int64

// Value is an application-level message submitted to an ordering protocol.
// Bytes is its wire size; Payload is an opaque application command carried
// end-to-end (nil for synthetic benchmark traffic).
type Value struct {
	ID      ValueID
	Bytes   int
	Payload any
	// Born is the proposal time, used by harnesses to compute delivery
	// latency.
	Born time.Duration
	// PartMask is the set of service partitions this value addresses, as a
	// bitmask, for the partitioned M-Ring Paxos of Chapter 4 (DSN 2011).
	// Zero means "no partitioning": the value goes to every learner.
	PartMask uint64
	// Client and Seq form the exactly-once identity of a client proposal:
	// Client is the submitting session's node id, Seq its per-session
	// sequence number. Client == 0 (the zero value) means the value was not
	// submitted through a client session — the entire exactly-once layer
	// (learner dedup tables, acks, NACKs) is skipped for such values, so
	// protocols that never see stamped values behave byte-identically to
	// before the layer existed.
	Client int64
	Seq    int64
}

// Size returns the value's wire footprint in bytes.
func (v Value) Size() int { return v.Bytes }

// Batch is a set of values decided in a single consensus instance. Ordering
// protocols batch small application messages into fixed-size packets
// (8 KB for M-Ring Paxos, 32 KB for U-Ring Paxos).
type Batch struct {
	Vals []Value
}

// Size returns the aggregate payload size of the batch.
func (b Batch) Size() int {
	n := 0
	for _, v := range b.Vals {
		n += v.Bytes
	}
	return n
}

// DeliverFunc is invoked by a learner for every value, in delivery order.
// inst is the consensus instance that decided the value's batch.
type DeliverFunc func(inst int64, v Value)

// Skip marks a skipped (empty) consensus instance in Multi-Ring Paxos.
// A skip batch carries no values.
var Skip = Batch{}

// MeasureClients runs a closed-loop deployment for warmup, then for dur,
// and returns the requests per second its clients completed in the second
// window and their mean response time. stats reads one client's cumulative
// completion count and response-time sum.
func MeasureClients[C any](run func(time.Duration), clients []C, stats func(C) (int64, time.Duration), warmup, dur time.Duration) (float64, time.Duration) {
	total := func() (n int64, lat time.Duration) {
		for _, c := range clients {
			cn, cl := stats(c)
			n, lat = n+cn, lat+cl
		}
		return
	}
	run(warmup)
	n0, l0 := total()
	run(dur)
	n1, l1 := total()
	if n1 == n0 {
		return 0, 0
	}
	return float64(n1-n0) / dur.Seconds(), (l1 - l0) / time.Duration(n1-n0)
}
