// Package sim implements a deterministic cooperative discrete-event
// simulation kernel with a virtual clock.
//
// The kernel runs simulated processes (each a runtime coroutine) one
// at a time: exactly one process executes between scheduling points, so
// all interleavings are deterministic and reproducible. Processes
// advance virtual time by sleeping; the kernel jumps the clock to the
// next timer when every process is blocked. Condition variables provide
// monitor-style blocking, and the kernel detects deadlock: if all live
// processes are blocked on condition variables and no timers or
// callbacks remain, Run returns a *DeadlockError naming the blocked
// processes.
//
// Scheduling is baton passing: a process that parks (or exits) runs
// the scheduling step itself, on its own stack — fire the due timers
// and callbacks in (when, seq) order, pop the run queue — then leaves
// the next process in the baton and yields to one trampoline on the
// goroutine that called Run, which resumes it: two coroutine switches
// per hand-off, none when the next process is the parker, and no trip
// through the Go scheduler. The trampoline returns when a process finds
// nothing left to run (all done, deadlock, or deadline).
//
// The kernel is the substrate for the cluster simulator: workers,
// parameter servers and network-delivery callbacks are all sim
// processes or timed callbacks, and every experiment built on it
// regenerates bit-identically.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// procState describes where a process currently is from the scheduler's
// point of view.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateSleeping // waiting on a timer
	stateWaiting  // waiting on a Cond
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateWaiting:
		return "waiting"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// Proc is a simulated process. Procs are created with Kernel.Spawn and
// must only call kernel methods from their own coroutine while running.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state procState
	// resume runs the proc's coroutine until it yields or returns (a
	// no-op once it has); only Kernel.run calls it. yield suspends it.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	// killed is set by the kernel before resuming a proc that must
	// unwind (deadline reached or kernel stopping). The next blocking
	// call panics with errKilled, which the spawn wrapper recovers.
	killed bool
	// waitingOn is the cond this proc is blocked on, for diagnostics.
	waitingOn *Cond
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns the process id (dense, in spawn order).
func (p *Proc) ID() int { return p.id }

// errKilled unwinds a proc's coroutine when the kernel shuts it down.
type errKilled struct{}

// Event is one entry of an EventHeap: something due at virtual time
// When, ordered among equal times by Seq (FIFO). What it stands for is
// its owner's business — a callback Fn or, when Fn is nil, an integer
// Arg: the id of the kernel's sleeping proc, the slot of the network
// fabric's in-flight message.
type Event struct {
	When time.Duration
	Seq  int64
	Fn   func()
	Arg  int32
}

func (e *Event) before(o *Event) bool {
	if e.When != o.When {
		return e.When < o.When
	}
	return e.Seq < o.Seq
}

// EventHeap is a min-heap on (When, Seq) holding its events by value:
// once the slice has grown, pushing and popping allocate nothing. It
// is 4-ary — half a binary heap's levels, a node's children adjacent
// in memory — which is where a pop among thousands of pending events
// spends its time. The zero value is empty; h[0] is the earliest.
type EventHeap []Event

// Push adds e.
func (hp *EventHeap) Push(e Event) {
	h := append(*hp, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 4
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*hp = h
}

// Pop removes and returns the earliest event.
func (hp *EventHeap) Pop() Event {
	h := *hp
	e, last := h[0], len(h)-1
	h[0], h[last] = h[last], Event{} // release Fn for GC
	*hp = h[:last]
	h[:last].siftDown()
	return e
}

// ReplaceTop overwrites the earliest event with e and restores the
// order: one sift where a Pop and a Push would take two.
func (h EventHeap) ReplaceTop(e Event) {
	h[0] = e
	h.siftDown()
}

// siftDown sinks h[0] to its place.
func (h EventHeap) siftDown() {
	for i := 0; ; {
		small := i
		for c := 4*i + 1; c <= 4*i+4 && c < len(h); c++ {
			if h[c].before(&h[small]) {
				small = c
			}
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// procRing is a FIFO of procs on a circular buffer: unlike q = q[1:]
// plus append it neither re-allocates as it slides forward nor keeps
// popped procs reachable.
type procRing struct {
	buf  []*Proc // length zero or a power of two
	head int
	n    int
}

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		grown := make([]*Proc, max(1, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *procRing) pop() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// DeadlockError reports that the simulation can make no further
// progress: live processes exist but all are blocked on condition
// variables with no pending timers.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string // names of blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %v", e.Now, len(e.Blocked), e.Blocked)
}

// Kernel is the deterministic simulation scheduler. Create one with
// NewKernel, spawn processes, then call Run (or RunUntil).
type Kernel struct {
	now     time.Duration
	procs   []*Proc
	runq    procRing
	timers  EventHeap // sleeping procs (Arg = proc id) and After callbacks
	seq     int64
	nLive   int
	current *Proc
	// baton is the proc a yielding proc hands on to: the trampoline
	// resumes it next, or returns when it is nil.
	baton *Proc
	// deadline, when >0, stops the simulation at that virtual time.
	deadline time.Duration
	// stopping is set by shutdown: the scheduling step then picks
	// nothing, so a killed proc leaves no baton.
	stopping bool
	stopped  bool
}

// NewKernel returns a kernel with the clock at zero and no processes.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time. Safe to call from the
// scheduler's caller between Run invocations and from running procs.
func (k *Kernel) Now() time.Duration { return k.now }

// Spawn creates a process running fn. fn receives the Proc handle it
// must use for all blocking operations. Spawn may be called before Run
// or by a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, id: len(k.procs), name: name, state: stateRunnable}
	k.procs = append(k.procs, p)
	k.nLive++
	k.runq.push(p)
	p.resume = newCoro(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(errKilled); !ok {
					panic(r) // real panic: it leaves through RunUntil
				}
			}
			p.state = stateDone
			k.nLive--
			k.baton = k.next()
		}()
		if p.killed {
			panic(errKilled{})
		}
		fn(p)
	})
	return p
}

// After schedules fn to run at virtual time now+d in scheduler context
// (no process is running while fn executes). fn must not block; it may
// call Broadcast/Signal on conds, Spawn, and After. Used for modeling
// asynchronous events such as network deliveries.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.seq++
	k.timers.Push(Event{When: k.now + max(d, 0), Seq: k.seq, Fn: fn})
}

// Sleep blocks the calling process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) {
	k := p.k
	if p.killed {
		panic(errKilled{})
	}
	if d <= 0 {
		// Still yield so equal-priority procs interleave
		// deterministically rather than starving.
		k.wake(p)
	} else {
		k.seq++
		k.timers.Push(Event{When: k.now + d, Seq: k.seq, Arg: int32(p.id)})
		p.state = stateSleeping
	}
	p.park()
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// wake makes p runnable, at the back of the run queue.
func (k *Kernel) wake(p *Proc) {
	p.state = stateRunnable
	p.waitingOn = nil
	k.runq.push(p)
}

// park passes the baton: the parker runs the scheduling step on its own
// stack, leaves whatever comes next in the baton and yields to the
// trampoline until resumed itself — or returns at once when the next
// proc is the parker (a lone proc sleeping, a yield with an empty run
// queue). On resume, if the kernel is shutting this proc down, it
// unwinds.
func (p *Proc) park() {
	if next := p.k.next(); next != p {
		p.k.baton = next
		p.yield(struct{}{})
	}
	if p.killed {
		panic(errKilled{})
	}
}

// next is the scheduling step: it fires due timers and callbacks in
// (when, seq) order, jumping the clock whenever the run queue is empty,
// and returns the next proc to run, already marked running — or nil
// when nothing remains (every proc done, deadlock, deadline reached, or
// the kernel shutting down). Callbacks run here with no current proc,
// on the stack of whoever parked last.
func (k *Kernel) next() *Proc {
	k.current = nil
	if k.stopping {
		return nil
	}
	for k.runq.n == 0 {
		if len(k.timers) == 0 {
			return nil
		}
		k.now = k.timers[0].When
		if k.deadline > 0 && k.now > k.deadline {
			k.now = k.deadline
			return nil
		}
		// Fire every timer scheduled for this instant, in seq order.
		for len(k.timers) > 0 && k.timers[0].When == k.now {
			if t := k.timers.Pop(); t.Fn != nil {
				t.Fn()
			} else {
				k.wake(k.procs[t.Arg])
			}
		}
	}
	// Only runnable procs are ever queued, and a proc finishes only
	// while running, so whatever pops is live.
	k.current = k.runq.pop()
	k.current.state = stateRunning
	return k.current
}

// run is the trampoline, the only caller of resume: it resumes p, then
// whatever proc each yielding proc left in the baton, until one leaves
// none.
func (k *Kernel) run(p *Proc) {
	for p != nil {
		k.baton = nil
		p.resume()
		p = k.baton
	}
}

func (k *Kernel) deadlockError() *DeadlockError {
	var blocked []string
	for _, p := range k.procs {
		if p.state == stateWaiting || p.state == stateSleeping {
			blocked = append(blocked, p.name)
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: k.now, Blocked: blocked}
}

// Run drives the simulation until every process finishes. It returns a
// *DeadlockError if the processes can make no further progress.
func (k *Kernel) Run() error { return k.RunUntil(0) }

// RunUntil drives the simulation until every process finishes or the
// virtual clock would pass the deadline (deadline 0 means no limit).
// When the deadline is reached, remaining processes are killed: their
// next blocking call unwinds the coroutine. RunUntil returns a
// *DeadlockError on deadlock, nil otherwise. A panic in a process or a
// callback kills the remaining processes, then RunUntil panics with the
// same value.
func (k *Kernel) RunUntil(deadline time.Duration) error {
	if k.stopped {
		return fmt.Errorf("sim: kernel already stopped")
	}
	k.deadline = deadline
	k.stopped = true
	defer k.shutdown() // on a panic too, which then goes on to the caller
	k.run(k.next())
	// Nothing is runnable. With timers pending that was the deadline;
	// with none, any proc still alive is blocked forever.
	if k.nLive > 0 && len(k.timers) == 0 {
		return k.deadlockError()
	}
	return nil
}

// shutdown kills every unfinished process so no coroutines leak. A
// proc whose coroutine a panic already ended resumes as a no-op.
func (k *Kernel) shutdown() {
	k.stopping = true
	for {
		resumed := false
		for _, p := range k.procs {
			if p.state != stateDone {
				p.killed = true
				if p.waitingOn != nil {
					p.waitingOn.removeWaiter(p)
				}
				k.run(p)
				p.state = stateDone
				resumed = true
			}
		}
		if !resumed {
			return
		}
	}
}

// Cond is a condition variable usable only inside a single kernel.
// Because the kernel runs one process at a time, no mutex is required:
// a process examines shared state, and if it must wait, calls Wait();
// any process or After-callback that changes the state calls Broadcast
// or Signal. Unlike sync.Cond there are no spurious wake-ups, but
// callers should still re-check their predicate in a loop: another
// woken process may consume the state first.
type Cond struct {
	k       *Kernel
	waiters procRing
}

// NewCond returns a condition variable bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks the calling process until Broadcast or Signal.
// It must be called by the currently running process.
func (c *Cond) Wait() {
	p := c.k.current
	if p == nil {
		panic("sim: Cond.Wait called outside a running process")
	}
	if p.killed {
		panic(errKilled{})
	}
	c.waiters.push(p)
	p.state = stateWaiting
	p.waitingOn = c
	p.park()
}

// Broadcast wakes all waiting processes (they become runnable in FIFO
// order). Safe to call from processes and After callbacks.
func (c *Cond) Broadcast() {
	for c.waiters.n > 0 {
		c.k.wake(c.waiters.pop())
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.n > 0 {
		c.k.wake(c.waiters.pop())
	}
}

// removeWaiter drops target by rotating the ring once, which keeps the
// remaining waiters in order.
func (c *Cond) removeWaiter(target *Proc) {
	for i := c.waiters.n; i > 0; i-- {
		if p := c.waiters.pop(); p != target {
			c.waiters.push(p)
		}
	}
}
