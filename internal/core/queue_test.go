package core

import (
	"testing"
	"time"
)

func upd(iter, from int, v float64) Update {
	return Update{Params: []float64{v}, Iter: iter, From: from}
}

func TestUpdateQueueBasicDequeue(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(0, 1, 1))
	q.Enqueue(upd(0, 2, 2))
	q.Enqueue(upd(1, 1, 3)) // future iteration
	got := q.DequeueIterAtLeast(2, 0)
	if len(got) != 2 {
		t.Fatalf("got %d updates, want 2", len(got))
	}
	if q.Size() != 1 {
		t.Errorf("size = %d, want 1 (the iter-1 entry)", q.Size())
	}
	got = q.DequeueIterAtLeast(1, 1)
	if len(got) != 1 || got[0].From != 1 {
		t.Errorf("iter-1 dequeue wrong: %+v", got)
	}
}

func TestUpdateQueueTakesExtrasBeyondNeed(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(3, 1, 1))
	q.Enqueue(upd(3, 2, 2))
	q.Enqueue(upd(3, 4, 3))
	got := q.DequeueIterAtLeast(2, 3) // backup-worker Recv: need 2, take all
	if len(got) != 3 {
		t.Errorf("got %d updates, want all 3", len(got))
	}
}

func TestUpdateQueueDiscardsStaleOnDequeue(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(0, 1, 1)) // will become stale
	q.Enqueue(upd(4, 2, 2))
	got := q.DequeueIterAtLeast(1, 4)
	if len(got) != 1 || got[0].Iter != 4 {
		t.Fatalf("dequeue(iter=4) = %+v", got)
	}
	if q.StaleDiscarded() != 1 {
		t.Errorf("stale discarded = %d, want 1", q.StaleDiscarded())
	}
	if q.Size() != 0 {
		t.Errorf("size = %d, want 0", q.Size())
	}
}

func TestUpdateQueueKeepsFutureEntries(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(5, 1, 1)) // queued ahead of the one we want
	q.Enqueue(upd(1, 2, 2))
	got := q.DequeueIterAtLeast(1, 1)
	if len(got) != 1 || got[0].Iter != 1 {
		t.Fatalf("dequeue(iter=1) = %+v", got)
	}
	// Future entry must survive for its own iteration.
	if q.SizeIter(5) != 1 {
		t.Errorf("iter-5 entry lost")
	}
}

func TestUpdateQueueBlocksUntilEnough(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(0, 1, 1))
	done := make(chan []Update, 1)
	go func() { done <- q.DequeueIterAtLeast(2, 0) }()
	select {
	case <-done:
		t.Fatal("dequeue returned before enough updates")
	case <-time.After(20 * time.Millisecond):
	}
	q.Enqueue(upd(0, 2, 2))
	select {
	case got := <-done:
		if len(got) != 2 {
			t.Errorf("got %d, want 2", len(got))
		}
	case <-time.After(time.Second):
		t.Fatal("dequeue did not wake")
	}
}

// TestDrainFromAndWaitFrom: DrainFrom takes exactly one sender's
// entries. The blocking wait for a sender is the staleness row of
// TestEveryWaitHonoursAbortAndDeath.
func TestDrainFromAndWaitFrom(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(0, 7, 1))
	q.Enqueue(upd(1, 7, 2))
	q.Enqueue(upd(1, 8, 3))
	got := q.DrainFrom(7)
	if len(got) != 2 {
		t.Fatalf("DrainFrom(7) = %d entries, want 2", len(got))
	}
	if got := q.DrainFrom(7); len(got) != 0 {
		t.Fatalf("second DrainFrom(7) = %d entries, want 0", len(got))
	}
	// The sender-8 entry must be untouched.
	if q.Size() != 1 {
		t.Errorf("size = %d, want 1", q.Size())
	}
}

// TestHasIterFromMatchesExactTag: the death guard asks whether one
// sender's update of exactly one iteration is queued; that sender's
// entries of other iterations, and other senders', do not count.
func TestHasIterFromMatchesExactTag(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	q.Enqueue(upd(3, 1, 1))
	q.Enqueue(upd(5, 1, 1))
	q.Enqueue(upd(4, 2, 1))
	for _, tc := range []struct {
		wid, iter int
		want      bool
	}{
		{1, 3, true}, {1, 4, false}, {1, 5, true},
		{2, 3, false}, {2, 4, true}, {2, 5, false},
	} {
		q.mon.Lock()
		got := q.hasIterFromLocked(tc.wid, tc.iter)
		q.mon.Unlock()
		if got != tc.want {
			t.Errorf("hasIterFrom(%d, %d) = %v, want %v", tc.wid, tc.iter, got, tc.want)
		}
	}
}

func TestHighWaterTracking(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 2)
	for i := 0; i < 5; i++ {
		q.Enqueue(upd(0, i, 0))
	}
	q.DequeueIterAtLeast(5, 0)
	if q.HighWater() != 5 {
		t.Errorf("high water %d, want 5", q.HighWater())
	}
	if q.Size() != 0 {
		t.Errorf("size after drain = %d", q.Size())
	}
}

func TestTokenQueueTakeBlocks(t *testing.T) {
	tq := NewTokenQueue(NewSyncMonitor(), 2)
	tq.Take(2)
	if tq.Size() != 0 {
		t.Fatalf("size = %d", tq.Size())
	}
	done := make(chan struct{})
	go func() { tq.Take(1); close(done) }()
	select {
	case <-done:
		t.Fatal("Take returned without tokens")
	case <-time.After(20 * time.Millisecond):
	}
	tq.Put(1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Take did not wake")
	}
	tq.Put(5)
	if tq.HighWater() != 5 {
		t.Errorf("high water %d, want 5", tq.HighWater())
	}
}

func TestAckTracker(t *testing.T) {
	mon := NewSyncMonitor()
	a := NewAckTracker(mon)
	done := func(iter int, want []int) bool {
		mon.Lock()
		defer mon.Unlock()
		return a.doneLocked(iter, want)
	}
	if !done(-1, []int{1, 2, 3}) {
		t.Error("iteration -1 not done: there is nothing to acknowledge before iteration 0")
	}
	a.Deliver(1, 0)
	if done(0, []int{1, 2}) {
		t.Fatal("done with 1 of 2 acks")
	}
	a.Deliver(1, 0) // duplicate from the same sender must not satisfy it
	if done(0, []int{1, 2}) {
		t.Fatal("done on a duplicate ack")
	}
	a.Deliver(2, 0)
	if !done(0, []int{1, 2}) {
		t.Fatal("not done with both acks")
	}
	if done(0, []int{1}) {
		t.Error("a done iteration is not forgotten")
	}
}

func TestTokenQueuePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTokenQueue(NewSyncMonitor(), -1)
}
