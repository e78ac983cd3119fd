package core

// queue_recycle_test.go — the memory contracts of UpdateQueue: removed
// parameter vectors are not pinned by the queue or result arrays; the
// steady state allocates nothing; retained capacity follows occupancy,
// not the run length.

import "testing"

// retained walks both arrays the queue holds — the queue and the
// result buffer — over their full capacity and returns the total entry
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
	scan(q.q)
	scan(q.out)
	return capacity, pinned
}

// TestUpdateQueueCompactionUnpinsParams: after entries leave the queue
// — dequeued, discarded as stale, or drained by sender — no backing
// array still references their parameter vectors beyond its length.
func TestUpdateQueueCompactionUnpinsParams(t *testing.T) {
	const iters, in = 8, 3
	q := NewUpdateQueue(NewSyncMonitor(), in+1)
	check := func(when string) {
		t.Helper()
		if _, pinned := q.retained(); pinned != 0 {
			t.Fatalf("%s: %d removed entries still pin their Params", when, pinned)
		}
	}
	for iter := 0; iter < iters; iter++ {
		for from := 0; from <= in; from++ {
			q.Enqueue(upd(iter, from, float64(iter)))
		}
		q.Enqueue(upd(iter+1, 1, 0.5)) // a neighbor one iteration ahead
		if iter >= 1 {
			q.Enqueue(upd(iter-1, 2, 0.25)) // late: stale at this dequeue
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
// arrays have reached their working size.
func TestUpdateQueueSteadyStateAllocsNothing(t *testing.T) {
	const in = 2
	q := NewUpdateQueue(NewSyncMonitor(), in+1)
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

// TestUpdateQueueRetainedCapacityBounded: 5 130 iterations leave a
// constant amount of entry capacity behind — what the occupancy needed.
func TestUpdateQueueRetainedCapacityBounded(t *testing.T) {
	const in, iters = 2, 5130
	q := NewUpdateQueue(NewSyncMonitor(), in+1)
	for iter := 0; iter < iters; iter++ {
		for from := 0; from <= in; from++ {
			q.Enqueue(upd(iter, from, 1))
		}
		q.Enqueue(upd(iter+1, 1, 1))
		q.DequeueIterAtLeast(in+1, iter)
	}
	capacity, _ := q.retained()
	// The queue and the result buffer, each grown by doubling to at
	// most 2·(in+2) entries; 64 is generous.
	if capacity > 64 {
		t.Errorf("queue retains capacity for %d entries after %d iterations, want a constant (<= 64)", capacity, iters)
	}
}
