package core

// This file implements the two queue types of the Hop design:
//
//   - UpdateQueue (§4.1, §6.1): a tagged FIFO of parameter updates,
//     one array in arrival order. §6.1 lays the queue out as
//     per-iteration queues; here every entry carries its full
//     (iter, w_id) tag, so a dequeue filters by tag and the layout
//     decides nothing. A dequeue at iteration k drops every entry
//     tagged below k (§6.2(a)). Removed entries are compacted out in
//     place, so the array grows to the peak occupancy once and the
//     steady state allocates nothing.
//   - TokenQueue (§4.2): the paper's token queue as a counting
//     semaphore, for callers without a protocol (tests, benchmarks).
//     The protocol keeps each queue as its owner's granted iteration
//     instead (protocol.go).
//
// The update queue is passive state under the cluster's Monitor: a
// worker's protocol blocks on it only through Protocol.await, whose
// ready closures call the …Locked predicates below, so the same code
// runs deterministically in simulation and concurrently in the live
// runtime. DequeueIterAtLeast is the standalone blocking form for
// callers without a protocol.

import "fmt"

// UpdateQueue is the update queue UpdateQ(i) of one worker.
type UpdateQueue struct {
	mon  Monitor
	cond Cond

	// q holds the queued entries in arrival order; out is the result
	// buffer takeIterLocked fills.
	q   []Update
	out []Update

	highWater int // maximum occupancy ever observed
	stale     int // stale entries discarded at dequeue

	recycle func([]float64) // takes back stale entries' buffers; nil drops them
}

// NewUpdateQueue creates an empty update queue with room for capacity
// entries before its array first grows; a worker passes its
// in-degree+1, one iteration's updates.
func NewUpdateQueue(mon Monitor, capacity int) *UpdateQueue {
	return &UpdateQueue{mon: mon, cond: mon.NewCond(), q: make([]Update, 0, capacity)}
}

// Enqueue pushes an update (the q.enqueue(update, iter, w_id) of
// §4.1). Callers may invoke it from any process/goroutine; it wakes
// blocked dequeuers. An update whose (From, Iter, Reply) is already
// queued is a duplicated delivery — a chaos duplicate, a resend — and
// is dropped, its buffer recycled, so a reduce counts each sender once.
func (q *UpdateQueue) Enqueue(u Update) {
	q.mon.Lock()
	defer q.mon.Unlock()
	for _, v := range q.q {
		if v.From == u.From && v.Iter == u.Iter && v.Reply == u.Reply {
			if q.recycle != nil {
				q.recycle(u.Params)
			}
			return
		}
	}
	q.q = append(q.q, u)
	q.highWater = max(q.highWater, len(q.q))
	q.cond.Broadcast()
}

// compactLocked replaces the queue by keep, the surviving entries
// compacted in place over the queue's own array. The vacated tail is
// zeroed so the array does not pin removed parameter vectors.
func (q *UpdateQueue) compactLocked(keep []Update) {
	clear(q.q[len(keep):])
	q.q = keep
}

// countIterLocked returns how many entries tagged exactly iter are
// queued, discarding every stale entry (iter'<iter) on the way — the
// "stale updates are found and discarded in the dequeue operation"
// rule of §6.2(a).
func (q *UpdateQueue) countIterLocked(iter int) int {
	keep := q.q[:0]
	n := 0
	for _, u := range q.q {
		switch {
		case u.Iter < iter:
			q.stale++
			if q.recycle != nil {
				q.recycle(u.Params)
			}
			continue
		case u.Iter == iter:
			n++
		}
		keep = append(keep, u)
	}
	q.compactLocked(keep)
	return n
}

// DequeueIterAtLeast blocks until at least need entries tagged iter are
// present, then removes and returns all entries tagged iter — the
// composition of the two dequeues in the backup-worker Recv (Fig. 8):
// the needed updates plus any extras already available.
//
// The returned slice is the queue's own result buffer: it is valid
// until the next DequeueIterAtLeast on this queue, so the caller must
// finish with it (reduce, recycle) before dequeuing again — which every
// protocol mode does, one Recv+Reduce per iteration on one goroutine.
func (q *UpdateQueue) DequeueIterAtLeast(need, iter int) []Update {
	q.mon.Lock()
	defer q.mon.Unlock()
	for {
		if out, ok := q.takeIterLocked(need, iter); ok {
			return out
		}
		q.cond.Wait()
	}
}

// takeIterLocked is one non-blocking pass of DequeueIterAtLeast: with
// at least need entries tagged iter queued it removes and returns all
// of them, otherwise it reports false, having discarded the stale
// entries it found. Caller holds the monitor.
func (q *UpdateQueue) takeIterLocked(need, iter int) ([]Update, bool) {
	if q.countIterLocked(iter) < need {
		return nil, false
	}
	clear(q.out) // the previous result is dead: unpin its vectors
	out, keep := q.out[:0], q.q[:0]
	for _, u := range q.q {
		if u.Iter == iter { // in arrival order: the reduce sums in this order
			out = append(out, u)
		} else {
			keep = append(keep, u)
		}
	}
	q.compactLocked(keep)
	q.out = out
	return out, true
}

// DrainFrom removes and returns all queued entries from sender w_id,
// in arrival order, without blocking (drainFromLocked is the
// bounded-staleness Recv's pass, which keeps only the newest). Like
// DequeueIterAtLeast it returns the queue's result buffer, valid until
// the next dequeue.
func (q *UpdateQueue) DrainFrom(wid int) []Update {
	q.mon.Lock()
	defer q.mon.Unlock()
	return q.drainFromLocked(wid)
}

func (q *UpdateQueue) drainFromLocked(wid int) []Update {
	clear(q.out)
	out, keep := q.out[:0], q.q[:0]
	for _, u := range q.q {
		if u.From == wid {
			out = append(out, u)
		} else {
			keep = append(keep, u)
		}
	}
	q.compactLocked(keep)
	q.out = out
	return out
}

// takeFirstLocked removes and returns the oldest queued entry match
// accepts, or reports false. Entries are matched by content, never by
// iteration, and nothing is discarded as stale: this is AD-PSGD's
// inbox (baselines.go). Caller holds the monitor.
func (q *UpdateQueue) takeFirstLocked(match func(Update) bool) (Update, bool) {
	for i, u := range q.q {
		if match(u) {
			q.compactLocked(append(q.q[:i], q.q[i+1:]...))
			return u, true
		}
	}
	return Update{}, false
}

// hasIterFromLocked reports whether an entry tagged exactly iter from
// sender wid is queued — the guard that keeps a peer's already-arrived
// final update consumable after its death notice lands (DESIGN.md §6).
func (q *UpdateQueue) hasIterFromLocked(wid, iter int) bool {
	for _, u := range q.q {
		if u.From == wid && u.Iter == iter {
			return true
		}
	}
	return false
}

// Size returns the total number of queued entries (the q.size() of
// §4.1 with no tags).
func (q *UpdateQueue) Size() int {
	q.mon.Lock()
	defer q.mon.Unlock()
	return len(q.q)
}

// SizeIter returns the number of entries tagged iter.
func (q *UpdateQueue) SizeIter(iter int) int {
	q.mon.Lock()
	defer q.mon.Unlock()
	n := 0
	for _, u := range q.q {
		if u.Iter == iter {
			n++
		}
	}
	return n
}

// HighWater returns the maximum total occupancy observed, the quantity
// bounded by (1+max_ig)·|Nin(i)| when token queues are active (§4.2).
func (q *UpdateQueue) HighWater() int {
	q.mon.Lock()
	defer q.mon.Unlock()
	return q.highWater
}

// StaleDiscarded returns how many stale entries dequeues dropped.
func (q *UpdateQueue) StaleDiscarded() int {
	q.mon.Lock()
	defer q.mon.Unlock()
	return q.stale
}

// --- TokenQueue -------------------------------------------------------

// TokenQueue is TokenQ(i→j) as a plain counting semaphore: tokens that
// permit in-neighbor j to advance (§4.2).
type TokenQueue struct {
	mon    Monitor
	cond   Cond
	tokens int
}

// NewTokenQueue creates a token queue holding initial tokens.
func NewTokenQueue(mon Monitor, initial int) *TokenQueue {
	if initial < 0 {
		panic(fmt.Sprintf("core: negative initial tokens %d", initial))
	}
	return &TokenQueue{mon: mon, cond: mon.NewCond(), tokens: initial}
}

// Put inserts n tokens (the owner does this when entering a new
// iteration).
func (t *TokenQueue) Put(n int) {
	t.mon.Lock()
	defer t.mon.Unlock()
	t.tokens += n
	t.cond.Broadcast()
}

// Take removes n tokens, blocking until they are available (the
// in-neighbor does this to advance).
func (t *TokenQueue) Take(n int) {
	t.mon.Lock()
	defer t.mon.Unlock()
	for t.tokens < n {
		t.cond.Wait()
	}
	t.tokens -= n
}

// Size returns the current token count.
func (t *TokenQueue) Size() int {
	t.mon.Lock()
	defer t.mon.Unlock()
	return t.tokens
}
