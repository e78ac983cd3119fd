package core

// This file implements the three queue types of the Hop design:
//
//   - UpdateQueue (§4.1, §6.1): a tagged FIFO of parameter updates,
//     physically laid out as rotating per-iteration slots indexed by
//     iter mod numSlots, exactly the multi-queue implementation of
//     §6.1. Entries carry their full (iter, w_id) tags, so correctness
//     never depends on the slot count — or on which backing array a
//     slot holds: emptied slots recycle their arrays through a spare
//     list, so memory follows occupancy and the steady state allocates
//     nothing. The slot layout is what keeps dequeue scans O(slot) and
//     lets stale entries be found and discarded cheaply.
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

	slots    [][]Update
	numSlots int
	// spare holds the (zeroed, length-0) backing arrays of emptied
	// slots; the next Enqueue into an empty slot draws from it. out is
	// the result buffer takeIterLocked fills.
	spare [][]Update
	out   []Update

	size      int
	highWater int // maximum total occupancy ever observed
	slotHigh  int // maximum single-slot occupancy ever observed
	stale     int // stale entries discarded at dequeue
}

// maxQueueSlots caps the rotating-slot count. The Theorem 1 sizing
// diameter+1 is 513 slot headers per worker on a 1024-ring, nearly all
// of them empty at any instant; since entries are fully tagged, folding
// iterations that far apart onto one slot changes no dequeue result,
// only lets a stale entry be found a lap sooner.
const maxQueueSlots = 16

// NewUpdateQueue creates an update queue with the given number of
// rotating slots (≥1), capped at maxQueueSlots. §6.1 sizes it at
// max_ig+1 when token queues bound the gap; callers without a bound
// may pass the graph diameter+1 per Theorem 1.
func NewUpdateQueue(mon Monitor, numSlots int) *UpdateQueue {
	if numSlots < 1 {
		panic(fmt.Sprintf("core: update queue needs >=1 slot, got %d", numSlots))
	}
	numSlots = min(numSlots, maxQueueSlots)
	return &UpdateQueue{
		mon:      mon,
		cond:     mon.NewCond(),
		slots:    make([][]Update, numSlots),
		numSlots: numSlots,
	}
}

func (q *UpdateQueue) slotOf(iter int) int { return iter % q.numSlots }

// Enqueue pushes an update (the q.enqueue(update, iter, w_id) of
// §4.1). Callers may invoke it from any process/goroutine; it wakes
// blocked dequeuers.
func (q *UpdateQueue) Enqueue(u Update) {
	q.mon.Lock()
	defer q.mon.Unlock()
	s := q.slotOf(u.Iter)
	slot := q.slots[s]
	if n := len(q.spare); slot == nil && n > 0 {
		slot, q.spare[n-1] = q.spare[n-1], nil
		q.spare = q.spare[:n-1]
	}
	slot = append(slot, u)
	q.slots[s] = slot
	q.size++
	if q.size > q.highWater {
		q.highWater = q.size
	}
	if n := len(slot); n > q.slotHigh {
		q.slotHigh = n
	}
	q.cond.Broadcast()
}

// compactLocked replaces slot s by keep, the surviving entries
// compacted in place over the slot's own array. The vacated tail is
// zeroed so the array does not pin removed parameter vectors, and an
// emptied slot gives its array to the spare list.
func (q *UpdateQueue) compactLocked(s int, keep []Update) {
	old := q.slots[s]
	clear(old[len(keep):])
	if old != nil && len(keep) == 0 {
		q.spare = append(q.spare, keep)
		keep = nil
	}
	q.slots[s] = keep
}

// countIterLocked returns how many entries tagged exactly iter are
// queued, discarding stale entries (iter'<iter) found in the slot on
// the way — the "stale updates are found and discarded in the dequeue
// operation" rule of §6.2(a).
func (q *UpdateQueue) countIterLocked(iter int) int {
	s := q.slotOf(iter)
	keep := q.slots[s][:0]
	n := 0
	for _, u := range q.slots[s] {
		switch {
		case u.Iter == iter:
			n++
			keep = append(keep, u)
		case u.Iter < iter:
			q.stale++
			q.size--
		default: // future iteration that happens to share the slot
			keep = append(keep, u)
		}
	}
	q.compactLocked(s, keep)
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
	s := q.slotOf(iter)
	clear(q.out) // the previous result is dead: unpin its vectors
	out := q.out[:0]
	keep := q.slots[s][:0]
	for _, u := range q.slots[s] {
		if u.Iter == iter {
			out = append(out, u)
		} else {
			keep = append(keep, u)
		}
	}
	q.compactLocked(s, keep)
	q.out = out
	q.size -= len(out)
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
	for s := range q.slots {
		keep := q.slots[s][:0]
		for _, u := range q.slots[s] {
			if u.From == wid {
				out = append(out, u)
			} else {
				keep = append(keep, u)
			}
		}
		q.compactLocked(s, keep)
	}
	q.size -= len(out)
	return out
}

// takeFirstLocked removes and returns the oldest queued entry match
// accepts, or reports false. Entries are matched by content, never by
// iteration, and nothing is discarded as stale: this is AD-PSGD's
// inbox (baselines.go), whose single slot keeps arrival order. Caller
// holds the monitor.
func (q *UpdateQueue) takeFirstLocked(match func(Update) bool) (Update, bool) {
	for s, slot := range q.slots {
		for i, u := range slot {
			if match(u) {
				q.compactLocked(s, append(slot[:i], slot[i+1:]...))
				q.size--
				return u, true
			}
		}
	}
	return Update{}, false
}

// hasIterFromLocked reports whether an entry tagged exactly iter from
// sender wid is queued — the guard that keeps a peer's already-arrived
// final update consumable after its death notice lands (DESIGN.md §6).
func (q *UpdateQueue) hasIterFromLocked(wid, iter int) bool {
	for _, u := range q.slots[q.slotOf(iter)] {
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
	return q.size
}

// SizeIter returns the number of entries tagged iter.
func (q *UpdateQueue) SizeIter(iter int) int {
	q.mon.Lock()
	defer q.mon.Unlock()
	n := 0
	for _, u := range q.slots[q.slotOf(iter)] {
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

// SlotHighWater returns the maximum single-slot occupancy observed.
func (q *UpdateQueue) SlotHighWater() int {
	q.mon.Lock()
	defer q.mon.Unlock()
	return q.slotHigh
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
