package core

// queue_recycle_test.go — the memory contracts of UpdateQueue: removed
// parameter vectors are not pinned by slot, spare or result arrays; the
// steady state allocates nothing; retained capacity follows occupancy,
// not the slot count.

import "testing"

// retained walks every array the queue holds — slots, spares and the
// result buffer — over its full capacity and returns the total entry
// capacity plus the number of entries beyond an array's length that
// still reference a parameter vector.
func (q *UpdateQueue) retained() (capacity, pinned int) {
	scan := func(a []Update) {
		capacity += cap(a)
		for _, u := range a[len(a):cap(a)] {
			if u.Params != nil {
				pinned++
			}
		}
	}
	for _, a := range q.slots {
		scan(a)
	}
	for _, a := range q.spare {
		scan(a)
	}
	scan(q.out)
	return capacity, pinned
}

// TestUpdateQueueCompactionUnpinsParams: after entries leave a slot —
// dequeued, discarded as stale, or drained by sender — no backing array
// still references their parameter vectors beyond its length.
func TestUpdateQueueCompactionUnpinsParams(t *testing.T) {
	const slots, in = 4, 3
	q := NewUpdateQueue(NewSyncMonitor(), slots)
	check := func(when string) {
		t.Helper()
		if _, pinned := q.retained(); pinned != 0 {
			t.Fatalf("%s: %d removed entries still pin their Params", when, pinned)
		}
	}
	for iter := 0; iter < 2*slots; iter++ { // two laps
		for from := 0; from <= in; from++ {
			q.Enqueue(upd(iter, from, float64(iter)))
		}
		q.Enqueue(upd(iter+1, 1, 0.5)) // a neighbor one iteration ahead
		if iter >= 1 {
			q.Enqueue(upd(iter-1, 2, 0.25)) // late: stale when its slot comes round
		}
		if got := q.DequeueIterAtLeast(in+1, iter); len(got) < in+1 {
			t.Fatalf("iter %d: dequeued %d, want >= %d", iter, len(got), in+1)
		}
		check("after dequeue")
	}
	if q.StaleDiscarded() == 0 {
		t.Error("no stale entry was discarded; the test lost its stale path")
	}
	q.Enqueue(upd(9, 2, 1))
	q.Enqueue(upd(9, 3, 1))
	q.Enqueue(upd(10, 2, 1))
	if got := q.DrainFrom(2); len(got) == 0 {
		t.Fatal("DrainFrom(2) returned nothing")
	}
	check("after drain")
	// The result buffer is cleared by the next dequeue, not before.
	q.Enqueue(upd(11, 0, 1))
	q.DequeueIterAtLeast(1, 11)
	for _, u := range q.out[len(q.out):cap(q.out)] {
		if u.Params != nil {
			t.Fatal("result buffer pins entries of an earlier dequeue")
		}
	}
}

// TestUpdateQueueSteadyStateAllocsNothing: one iteration's traffic —
// in-degree+1 enqueues, one dequeue — allocates nothing once the
// recycled arrays have reached their working size, on a queue sized by
// the Theorem 1 fallback of a 1024-ring.
func TestUpdateQueueSteadyStateAllocsNothing(t *testing.T) {
	const in = 2
	q := NewUpdateQueue(NewSyncMonitor(), 513)
	params := []float64{1, 2, 3}
	iter := 0
	step := func() {
		for from := 0; from <= in; from++ {
			q.Enqueue(Update{Params: params, Iter: iter, From: from})
		}
		q.Enqueue(Update{Params: params, Iter: iter + 1, From: 1}) // neighbor running ahead
		if got := q.DequeueIterAtLeast(in+1, iter); len(got) < in+1 {
			t.Fatalf("iter %d: dequeued %d", iter, len(got))
		}
		iter++
	}
	for i := 0; i < 8; i++ {
		step() // warm-up: arrays grow to in-degree+1
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("steady-state enqueue+dequeue allocates %.1f objects per iteration, want 0", allocs)
	}
}

// TestUpdateQueueRetainedCapacityBounded: ten laps over a 513-slot
// queue leave a constant amount of entry capacity behind — what the
// occupancy needed — where every slot once kept its own grown array.
func TestUpdateQueueRetainedCapacityBounded(t *testing.T) {
	const in, slots = 2, 513
	q := NewUpdateQueue(NewSyncMonitor(), slots)
	for iter := 0; iter < 10*slots; iter++ {
		for from := 0; from <= in; from++ {
			q.Enqueue(upd(iter, from, 1))
		}
		q.Enqueue(upd(iter+1, 1, 1))
		q.DequeueIterAtLeast(in+1, iter)
	}
	capacity, _ := q.retained()
	// Two live slots, their spares and the result buffer, each grown
	// by doubling to at most 2·(in+2) entries; 64 is generous.
	if capacity > 64 {
		t.Errorf("queue retains capacity for %d entries after 10 laps, want a constant (<= 64)", capacity)
	}
	if len(q.slots) > maxQueueSlots {
		t.Errorf("%d slot headers, want <= %d", len(q.slots), maxQueueSlots)
	}
}
