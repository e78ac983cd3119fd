package netsim

// eventq.go — the fabric's sharded delivery queue.
//
// Pending deliveries wait in the fabric's own (arrival time, sequence)
// min-heaps instead of as one kernel timer each: the kernel carries at
// most a handful of armed drain timers however many messages are in
// flight, and a message costs no allocation — callbacks ride the heaps
// by value and typed data messages park in a recycled slab.
//
// The queue is sharded by destination machine: each shard is a small
// heap, and a heap of shard heads finds the earliest. The sharding is
// not arbitrary: the fabric's per-machine ingress NIC timeline makes
// inter-machine arrivals to one machine monotone in enqueue order, so
// pushes into a shard are near-sorted and cheap, and a pop sifts a
// dozen events, not everything in flight (half the cost per message
// of one flat heap at n=1024).
//
// Determinism: deliveries fire in exactly the global (when, seq) order
// the old one-timer-per-message scheme produced — seq is assigned at
// enqueue, the same total order the kernel's own timer heap uses, and
// a drain pops across all shards through the heads heap, so
// same-instant deliveries to different machines still fire in the
// order they were priced.

import (
	"time"

	"hop/internal/sim"
)

// eqNone marks "no armed drain timer". Arrival times are nonnegative,
// so any armed time compares above it.
const eqNone = time.Duration(-1)

// eventQueue holds the fabric's pending deliveries. A shard event is a
// control-plane callback (Fn) or, when Fn is nil, the typed data
// message parked in msgs[Arg]; keeping messages out of line keeps heap
// moves at 32 bytes.
type eventQueue struct {
	k      *sim.Kernel
	handle func(Message)   // receives every arriving data message
	shards []sim.EventHeap // per destination machine
	// heads orders the shards by their head events: an entry copies a
	// shard head's (When, Seq) with the shard id as Arg, pushed
	// whenever a shard gets a new head. Entries are never fixed in
	// place; one whose shard head has since changed is stale and is
	// dropped when it surfaces (head).
	heads   sim.EventHeap
	msgs    []Message // in-flight data messages, indexed by Event.Arg
	free    []int32   // vacant msgs indices, reused before msgs grows
	seq     int64
	drainFn func() // q.drain, bound once: arming a timer allocates nothing
	// armedAt is the earliest drain timer currently armed in the
	// kernel, or eqNone. Stale timers (superseded by an earlier arm)
	// fire as no-ops; the invariant that matters is that a nonempty
	// queue always has a timer armed at or before its head's time.
	armedAt time.Duration
}

func newEventQueue(k *sim.Kernel, machines int) *eventQueue {
	q := &eventQueue{k: k, shards: make([]sim.EventHeap, max(machines, 1)), armedAt: eqNone}
	q.drainFn = q.drain
	return q
}

// enqueueMsg schedules m for the handler at virtual time when, parking
// it in a recycled msgs slot: no allocation once the slab has grown to
// the peak number of messages in flight.
func (q *eventQueue) enqueueMsg(shard int, when time.Duration, m Message) {
	slot := int32(len(q.msgs))
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.msgs[slot] = m
	} else {
		q.msgs = append(q.msgs, m)
	}
	q.push(shard, sim.Event{When: when, Arg: slot})
}

// push schedules e (When and Fn or Arg set) on a destination-machine
// shard: it stamps the next sequence number, clamps When to now, and
// records the shard's new head if e became it.
func (q *eventQueue) push(shard int, e sim.Event) {
	q.seq++
	e.When, e.Seq = max(e.When, q.k.Now()), q.seq
	h := &q.shards[shard]
	h.Push(e)
	if (*h)[0].Seq == e.Seq {
		q.heads.Push(sim.Event{When: e.When, Seq: e.Seq, Arg: int32(shard)})
	}
	q.arm()
}

// head returns the shard holding the earliest pending event, or -1
// when the queue is empty, dropping stale heads entries on the way.
func (q *eventQueue) head() int {
	for len(q.heads) > 0 {
		top := q.heads[0]
		if h := q.shards[top.Arg]; len(h) > 0 && h[0].Seq == top.Seq {
			return int(top.Arg)
		}
		q.heads.Pop()
	}
	return -1
}

// arm keeps the invariant that a nonempty queue has a kernel timer
// armed at or before its head's time.
func (q *eventQueue) arm() {
	s := q.head()
	if s < 0 {
		return
	}
	head := q.shards[s][0].When
	if q.armedAt == eqNone || head < q.armedAt {
		q.armedAt = head
		q.k.After(head-q.k.Now(), q.drainFn)
	}
}

// drain is the armed kernel callback: it fires every due delivery, in
// global (when, seq) order, then re-arms for the next head. Callbacks
// may enqueue further deliveries; the loop re-reads the head after
// each one, matching the kernel's own same-instant semantics.
func (q *eventQueue) drain() {
	now := q.k.Now()
	q.armedAt = eqNone
	for s := q.head(); s >= 0 && q.shards[s][0].When <= now; s = q.head() {
		e := q.shards[s].Pop()
		if h := q.shards[s]; len(h) > 0 {
			q.heads.ReplaceTop(sim.Event{When: h[0].When, Seq: h[0].Seq, Arg: int32(s)})
		} else {
			q.heads.Pop()
		}
		if e.Fn != nil {
			e.Fn()
		} else {
			m := q.msgs[e.Arg]
			q.msgs[e.Arg] = Message{} // release params for GC
			q.free = append(q.free, e.Arg)
			q.handle(m)
		}
	}
	q.arm()
}
