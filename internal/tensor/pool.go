package tensor

// pool.go — the parallel compute plane. The deterministic simulation
// kernel (internal/sim) runs exactly one simulated process at a time,
// so without help every gradient step of a figure reproduction executes
// on one core no matter the machine. The compute plane fixes that
// without touching the scheduling plane: a persistent worker pool runs
// whole steps (Step.Start / Step.Join, DESIGN.md §3) — a pure closure,
// one simulated worker's gradient computation, started now and joined
// later. Steps of different owners run concurrently; inside a step
// every kernel runs on the goroutine that called it.
//
// A step is pure and runs exactly once, so results are bit-identical at
// any pool size — including pool size one — and the scheduler keeps its
// deterministic interleavings.
//
// Lifecycle: worker goroutines are started lazily by the first Start,
// up to Workers()−1 of them, and persist (they are parked on a channel
// receive when idle, so an idle pool costs nothing but a few KiB of
// stacks); only SetWorkers lowering the width stops the surplus. Steps
// wait in a buffered queue, because their owner has other things to do
// before it needs the result; whoever gets there first — a pool worker
// or the owner's Join — runs the step.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// configuredWorkers is the SetWorkers override; 0 means "use
// GOMAXPROCS".
var configuredWorkers atomic.Int64

// Workers returns the current compute-plane width: how many whole steps
// run at once (Workers()−1 pool goroutines plus the joining owner). It
// defaults to runtime.GOMAXPROCS and can be overridden with SetWorkers.
func Workers() int {
	if w := configuredWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the compute-plane width (the -compute-workers
// knob). n <= 0 restores the GOMAXPROCS default. Results are
// bit-identical at any width — the setting trades wall-clock speed
// against CPU share only, so tests may pin it to compare runs. Safe
// for concurrent use; takes effect on subsequent Start calls. A pool
// grown under a larger width is shrunk to the new one, so that steps —
// which any pool goroutine may claim — keep at most Workers() cores
// busy; SetWorkers waits for the surplus goroutines to finish the step
// they are running.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	configuredWorkers.Store(int64(n))
	startedMu.Lock()
	surplus := started - (Workers() - 1)
	if surplus > 0 {
		started -= surplus
	}
	startedMu.Unlock()
	// Outside the lock, which Start takes: the send waits for a worker
	// to finish its step.
	for ; surplus > 0; surplus-- {
		quit <- struct{}{}
	}
}

var (
	// steps queues started whole steps for the pool. An entry is a
	// hint, not ownership: whoever wins the step's queued→running
	// transition runs it, and entries whose step the owner already ran
	// are skipped. A stale entry stays in the channel until someone
	// receives it, so a Step may have several entries queued: the first
	// received claims its queued run, if any, and the rest are skipped.
	// Sized for the largest committed cluster (1024 simulated workers,
	// one queued run each); a Start that finds it full — stale entries
	// count — leaves the step to its owner's Join.
	steps = make(chan *Step, 1024)

	// started counts live worker goroutines; ensureWorkers grows the
	// pool up to the requested width, SetWorkers shrinks it.
	startedMu sync.Mutex
	started   int

	// quit stops one pool goroutine per value sent. Unbuffered: the
	// send returns once an idle worker has taken it.
	quit = make(chan struct{})
)

// ensureWorkers grows the pool to at least n goroutines.
func ensureWorkers(n int) {
	if n <= 0 {
		return
	}
	startedMu.Lock()
	for started < n {
		go poolWorker()
		started++
	}
	startedMu.Unlock()
}

// poolWorker is the loop of one pool goroutine.
func poolWorker() {
	for {
		select {
		case <-quit:
			return
		case s := <-steps:
			s.runIfQueued()
		}
	}
}

// StepOffloadMin is the host time a closure must take before starting
// it as a Step pays for itself; cheaper closures should simply be
// called. BenchmarkStepHandOff on the 2-core reference sandbox: an
// empty step costs its owner 0.06 µs run inline, 0.85 µs handed to a
// pool worker that is still spinning, and 11 µs handed to one that has
// parked, which is the state a real run finds it in — the owner wakes a
// thread (futex) and the closure starts on a cold core. An
// unconditional hand-off of the 16-float toy gradient cost the
// 1024-worker ring 12–25 % of its run time. The bound is ten parked
// hand-offs: a step that long loses at most a tenth to being moved, and
// a cheap closure's first, cold, timed call still lands under it.
const StepOffloadMin = 100 * time.Microsecond

// Step is one whole-step task on the compute plane: Start hands a pure
// closure to the pool and returns at once, Join returns when the
// closure has run — exactly once, on a pool worker or on the joining
// goroutine itself. Between the two calls everything the closure reads
// or writes belongs to it. A Step is reusable (Start, Join, Start, …),
// allocates nothing after its first Start, and must not be copied. The
// zero value is ready; Start and Join must come from one goroutine at a
// time (the owner).
type Step struct {
	fn    func()
	state atomic.Uint32 // stepIdle → stepQueued → stepRunning → stepIdle
	// done carries the one completion signal of a run the owner did
	// not perform itself; capacity 1, so the runner never blocks.
	done chan struct{}
}

const (
	stepIdle uint32 = iota
	stepQueued
	stepRunning
)

// Start queues fn, which must be pure compute: no blocking on other
// goroutines, no simulated-kernel operations. At width 1 nothing is
// handed off and no goroutine is started: Join runs fn inline.
func (s *Step) Start(fn func()) {
	if s.state.Load() != stepIdle {
		panic("tensor: Step.Start before the previous run was joined")
	}
	if s.done == nil {
		s.done = make(chan struct{}, 1)
	}
	s.fn = fn
	s.state.Store(stepQueued)
	w := Workers()
	if w <= 1 {
		return
	}
	ensureWorkers(w - 1)
	select {
	case steps <- s:
	default:
		// Queue full: the owner's Join runs it.
	}
}

// runIfQueued runs s on behalf of its owner if nobody has yet.
func (s *Step) runIfQueued() {
	if s.state.CompareAndSwap(stepQueued, stepRunning) {
		s.fn()
		s.done <- struct{}{}
	}
}

// Join returns once the started closure has finished; it is a no-op
// when none is outstanding. The wait helps: if the step is still
// queued the joiner runs it itself, and while a pool worker has it the
// joiner runs other queued steps — so pool goroutines plus joiner keep
// Workers() cores busy, and at width 1 the joiner is the only
// executor. Its own completion comes first: a select picks uniformly
// among ready cases, so without the poll a joiner whose step is
// already done would run a queued step half the time, and the pool
// goroutine that could have run it would sit idle while the owner does
// its serial work late (DESIGN.md §3.2).
func (s *Step) Join() {
	switch s.state.Load() {
	case stepIdle:
		return
	case stepQueued:
		if s.state.CompareAndSwap(stepQueued, stepRunning) {
			s.fn()
			s.state.Store(stepIdle)
			return
		}
	}
	for {
		select {
		case <-s.done:
			s.state.Store(stepIdle)
			return
		default:
		}
		select {
		case <-s.done:
			s.state.Store(stepIdle)
			return
		case o := <-steps:
			o.runIfQueued()
		}
	}
}
