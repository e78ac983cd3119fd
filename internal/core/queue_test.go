package core

import (
	"testing"
	"time"

	"hop/internal/graph"
	"hop/internal/model"
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

// A duplicated delivery — a chaos duplicate, a resend after a redial —
// is dropped at the queue with its buffer recycled, so a reduce counts
// each sender once: two updates from one sender would fill a quorum or
// a backup reduce's slot a missing peer should hold, and weigh that
// sender twice in the mean. A different Reply flag or iteration is a
// different update.
func TestEnqueueDropsDuplicateTag(t *testing.T) {
	q := NewUpdateQueue(NewSyncMonitor(), 4)
	var recycled [][]float64
	q.recycle = func(v []float64) { recycled = append(recycled, v) }
	dup := []float64{9}
	q.Enqueue(upd(3, 1, 1))
	q.Enqueue(Update{Params: dup, Iter: 3, From: 1})
	q.Enqueue(Update{Params: []float64{2}, Iter: 3, From: 1, Reply: true})
	q.Enqueue(upd(4, 1, 3))
	q.Enqueue(upd(3, 2, 4))
	if len(recycled) != 1 || &recycled[0][0] != &dup[0] {
		t.Fatalf("recycled %v, want only the duplicate's buffer", recycled)
	}
	got := q.DequeueIterAtLeast(3, 3)
	if len(got) != 3 || got[0].Params[0] != 1 || !got[1].Reply || got[2].From != 2 {
		t.Fatalf("iteration 3 reduces %v, want the first arrival from 1, its reply and 2's", got)
	}
	if q.Size() != 1 {
		t.Fatalf("%d entries left, want iteration 4's", q.Size())
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
	if tq.Size() != 5 {
		t.Errorf("size %d, want 5", tq.Size())
	}
}

// TestAckGateIsCumulative: a NOTIFY-ACK worker may Send(k) once every
// out-neighbor has granted k, the grant that acknowledges k−1 (§3.3's
// ACK). A grant stands for every earlier one, so a duplicate of an
// older ACK arriving late does not take it back.
func TestAckGateIsCumulative(t *testing.T) {
	cfg := Config{Graph: graph.Ring(3), Mode: ModeNotifyAck, MaxIter: 10}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sendable := func(k int) bool {
		p.mon.Lock()
		defer p.mon.Unlock()
		return p.grantedAllLocked(k)
	}
	if !sendable(0) {
		t.Error("Send(0) gated: there is nothing to acknowledge before iteration 0")
	}
	p.DeliverTokens(1, 5) // ACK(4)
	if sendable(1) {
		t.Fatal("Send(1) released with one of two out-neighbors heard from")
	}
	p.DeliverTokens(2, 6)
	p.DeliverTokens(2, 4) // a late duplicate
	if !sendable(5) {
		t.Error("Send(5) still gated with ACK(4) from 1 and ACK(5) from 2")
	}
	if sendable(6) {
		t.Error("Send(6) released without ACK(5) from 1")
	}
}

// TestTokenGateIsCumulative: a worker enters next once every
// out-neighbor's newest grant reaches next − max_ig. A grant names the
// iteration its sender entered and stands for every earlier one, so a
// duplicate or a late older grant changes nothing.
func TestTokenGateIsCumulative(t *testing.T) {
	const maxIG = 2
	cfg := Config{Graph: graph.Ring(3), MaxIG: maxIG, MaxIter: 10}
	p, err := NewProtocol(cfg, 0, model.NewFrozen([]float64{0}), NewSyncMonitor(), nopRuntime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	admits := func(next int) bool {
		p.mon.Lock()
		defer p.mon.Unlock()
		return p.grantedAllLocked(next)
	}
	if admits(maxIG + 1) {
		t.Fatal("entered max_ig+1 with no grant: Theorem 2 allows max_ig")
	}
	if !admits(maxIG) {
		t.Fatal("max_ig not admitted with every neighbor at iteration 0")
	}
	p.DeliverTokens(1, 4)
	p.DeliverTokens(2, 5)
	p.DeliverTokens(2, 5) // a duplicate
	p.DeliverTokens(1, 3) // a late older grant
	if admits(5 + maxIG) {
		t.Fatal("entered 5+max_ig with 1's grant at 4")
	}
	if !admits(4 + maxIG) {
		t.Fatal("4+max_ig still gated with grants 4 and 5")
	}
	// Now at 4+max_ig, 2's grant of 5 leaves one token; it left five
	// when it arrived at iteration max_ig.
	if n, high, ok := p.Tokens(2); !ok || n != 1 || high != 5 {
		t.Errorf("TokenQ(2→0) = %d (high %d, ok %v), want 1 (high 5)", n, high, ok)
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
