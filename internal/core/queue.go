package core

// This file implements the three queue types of the Hop design:
//
//   - UpdateQueue (§4.1, §6.1): a tagged FIFO of parameter updates,
//     one array in arrival order. §6.1 lays the queue out as
//     per-iteration queues; here every entry carries its full
//     (iter, w_id) tag, so a dequeue filters by tag and the layout
//     decides nothing. A dequeue at iteration k drops every entry
//     tagged below k (§6.2(a)). Removed entries are compacted out in
//     place, so the array grows to the peak occupancy once and the
//     steady state allocates nothing.
//   - TokenQueue (§4.2): a counting semaphore realizing the
//     iteration-gap control of Theorem 2. Its Size doubles as the
//     straggler self-identification signal of §5.
//   - AckTracker (§3.3): per-iteration ACK counting for the NOTIFY-ACK
//     baseline.
//
// The queues are passive state under the cluster's Monitor: a worker's
// protocol blocks on them only through Protocol.await, whose ready
// closures call the …Locked predicates below, so the same code runs
// deterministically in simulation and concurrently in the live
// runtime. DequeueIterAtLeast and Take are the standalone blocking
// forms for callers without a protocol (tests, benchmarks).

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
}

// NewUpdateQueue creates an empty update queue with room for capacity
// entries before its array first grows; a worker passes its
// in-degree+1, one iteration's updates.
func NewUpdateQueue(mon Monitor, capacity int) *UpdateQueue {
	return &UpdateQueue{mon: mon, cond: mon.NewCond(), q: make([]Update, 0, capacity)}
}

// Enqueue pushes an update (the q.enqueue(update, iter, w_id) of
// §4.1). Callers may invoke it from any process/goroutine; it wakes
// blocked dequeuers.
func (q *UpdateQueue) Enqueue(u Update) {
	q.mon.Lock()
	defer q.mon.Unlock()
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
// bounded-staleness Recv's pass, which keeps only the newest).
func (q *UpdateQueue) DrainFrom(wid int) []Update {
	q.mon.Lock()
	defer q.mon.Unlock()
	return q.drainFromLocked(wid)
}

func (q *UpdateQueue) drainFromLocked(wid int) []Update {
	var out []Update
	keep := q.q[:0]
	for _, u := range q.q {
		if u.From == wid {
			out = append(out, u)
		} else {
			keep = append(keep, u)
		}
	}
	q.compactLocked(keep)
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

// TokenQueue is TokenQ(i→j): stored at worker i, holding tokens that
// permit in-neighbor j to advance (§4.2). Tokens are a pure count; the
// paper tags them with iterations but never uses the tags.
type TokenQueue struct {
	mon  Monitor
	cond Cond

	tokens    int
	highWater int
	released  bool // owner left the graph: takes pass freely
}

// NewTokenQueue creates a token queue holding initial tokens.
func NewTokenQueue(mon Monitor, initial int) *TokenQueue {
	if initial < 0 {
		panic(fmt.Sprintf("core: negative initial tokens %d", initial))
	}
	return &TokenQueue{mon: mon, cond: mon.NewCond(), tokens: initial, highWater: initial}
}

// Put inserts n tokens (the owner does this when entering a new
// iteration).
func (t *TokenQueue) Put(n int) {
	t.mon.Lock()
	defer t.mon.Unlock()
	t.tokens += n
	if t.tokens > t.highWater {
		t.highWater = t.tokens
	}
	t.cond.Broadcast()
}

// Take removes n tokens, blocking until they are available (the
// in-neighbor does this to advance). A released queue — its owner left
// the graph — admits any take without blocking or counting.
func (t *TokenQueue) Take(n int) {
	t.mon.Lock()
	defer t.mon.Unlock()
	for !t.takeLocked(n) {
		t.cond.Wait()
	}
}

// takeLocked is one non-blocking pass of Take: it removes n tokens if
// they are there and reports whether the take is done. Caller holds
// the monitor.
func (t *TokenQueue) takeLocked(n int) bool {
	if t.released {
		return true
	}
	if t.tokens < n {
		return false
	}
	t.tokens -= n
	return true
}

// releaseLocked marks the owner dead: current and future takes return
// immediately — the Theorem 2 invariant is dissolved for this edge and
// re-established over the surviving set (DESIGN.md §6). Caller holds
// the monitor.
func (t *TokenQueue) releaseLocked() {
	t.released = true
	t.cond.Broadcast()
}

// resetLocked rearms a released queue with a fresh initial count when
// its owner rejoins. Caller holds the monitor.
func (t *TokenQueue) resetLocked(initial int) {
	t.released = false
	t.tokens = initial
	t.cond.Broadcast()
}

// Size returns the current token count: Iter(owner) − Iter(consumer) +
// max_ig by the Theorem 2 invariant, which is also the straggler
// signal of §5.
func (t *TokenQueue) Size() int {
	t.mon.Lock()
	defer t.mon.Unlock()
	return t.tokens
}

// HighWater returns the maximum token count observed; Theorem 2 bounds
// it by max_ig·(length(Path i→j)+1).
func (t *TokenQueue) HighWater() int {
	t.mon.Lock()
	defer t.mon.Unlock()
	return t.highWater
}

// --- AckTracker --------------------------------------------------------

// AckTracker records NOTIFY-ACK acknowledgments per iteration for one
// worker (§3.3): a worker may not Send(k) until it holds ACK(k-1) from
// all out-going neighbors. Acks are tracked per sender so a dead
// neighbor's pending edge can be released without miscounting.
type AckTracker struct {
	mon  Monitor
	cond Cond

	acks map[int]map[int]bool // iter → set of acked senders
}

// NewAckTracker creates an empty tracker.
func NewAckTracker(mon Monitor) *AckTracker {
	return &AckTracker{mon: mon, cond: mon.NewCond(), acks: make(map[int]map[int]bool)}
}

// Deliver records sender from's ACK for iteration iter.
func (a *AckTracker) Deliver(from, iter int) {
	a.mon.Lock()
	defer a.mon.Unlock()
	set := a.acks[iter]
	if set == nil {
		set = make(map[int]bool)
		a.acks[iter] = set
	}
	set[from] = true
	a.cond.Broadcast()
}

// doneLocked reports whether every worker in want has acked iteration
// iter, and then forgets the iteration. Iterations below zero are done:
// there is nothing to acknowledge before the first Send. Caller holds
// the monitor.
func (a *AckTracker) doneLocked(iter int, want []int) bool {
	if iter < 0 {
		return true
	}
	for _, j := range want {
		if !a.acks[iter][j] {
			return false
		}
	}
	delete(a.acks, iter)
	return true
}

// hasLocked reports whether sender from has acked iteration iter.
// Caller holds the monitor.
func (a *AckTracker) hasLocked(iter, from int) bool {
	return a.acks[iter][from]
}
