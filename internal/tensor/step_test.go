package tensor

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hop/internal/leaktest"
)

// goid returns the calling goroutine's id, parsed from the stack
// header ("goroutine N [running]: …") — test-only identity.
func goid() int {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	id := 0
	for _, c := range s[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int(c-'0')
	}
	return id
}

// TestStepRunsExactlyOnce drives both claim paths at every width: a
// step a pool worker picks up (the owner waits for the closure's own
// signal before joining, so nobody but the pool can have run it) and a
// step the joiner has to run itself (the only eligible pool worker is
// pinned inside another step).
func TestStepRunsExactlyOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 4} {
		SetWorkers(w)
		for round := 0; round < 50; round++ {
			var s Step
			var runs atomic.Int32
			if w > 1 {
				ran := make(chan struct{})
				s.Start(func() { runs.Add(1); close(ran) })
				<-ran
				s.Join()
				if n := runs.Load(); n != 1 {
					t.Fatalf("width %d: pool-claimed step ran %d times", w, n)
				}
				runs.Store(0)
			}

			// Pin every eligible pool worker, then start one more.
			pinned := make([]Step, w-1)
			entered, release := make(chan struct{}), make(chan struct{})
			for i := range pinned {
				pinned[i].Start(func() { entered <- struct{}{}; <-release })
			}
			for range pinned {
				<-entered
			}
			s.Start(func() { runs.Add(1) })
			s.Join()
			if n := runs.Load(); n != 1 {
				t.Fatalf("width %d: joiner-claimed step ran %d times", w, n)
			}
			close(release)
			for i := range pinned {
				pinned[i].Join()
			}
			s.Join() // nothing outstanding: no-op
			if n := runs.Load(); n != 1 {
				t.Fatalf("width %d: second Join re-ran the step (%d runs)", w, n)
			}
		}
	}
}

// TestJoinTakesOwnCompletionFirst pins Join's order at width 2: a
// joiner whose step a pool goroutine has already finished returns at
// once, and leaves the queued steps to the pool. Each round the pool
// goroutine runs x, is then pinned inside z, and y waits behind z; x's
// Join must not run y. A Join that picked among its own completion and
// the queue at random would run y in half the rounds.
func TestJoinTakesOwnCompletionFirst(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	ensureWorkers(1) // before the count: the pool goroutine outlives the test
	defer leaktest.Check(t, 0)()
	for round := 0; round < 100; round++ {
		var x, y, z Step
		var ranOn atomic.Int64
		x.Start(func() {})
		entered, release := make(chan struct{}), make(chan struct{})
		z.Start(func() { entered <- struct{}{}; <-release })
		<-entered // the one pool goroutine finished x before taking z
		y.Start(func() { ranOn.Store(int64(goid())) })
		x.Join()
		helped := ranOn.Load() != 0
		close(release)
		z.Join()
		y.Join()
		if helped {
			t.Fatalf("round %d: x.Join ran the queued step y after its own step had finished", round)
		}
	}
}

// TestJoinHelpsWhileOwnStepRuns is the converse: while a pool
// goroutine still runs x, x.Join runs the queued y itself. y's closure
// is what releases x, so a Join that only waited would hang; the
// watchdog frees x after five seconds and the round fails instead.
func TestJoinHelpsWhileOwnStepRuns(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	ensureWorkers(1)
	defer leaktest.Check(t, 0)()
	me := goid()
	for round := 0; round < 100; round++ {
		var x, y Step
		var ranOn atomic.Int64
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		free := func() { once.Do(func() { close(release) }) }
		watchdog := time.AfterFunc(5*time.Second, free)
		x.Start(func() { entered <- struct{}{}; <-release })
		<-entered // the one pool goroutine is pinned inside x
		y.Start(func() { ranOn.Store(int64(goid())); free() })
		x.Join()
		watchdog.Stop()
		y.Join()
		if id := ranOn.Load(); id != int64(me) {
			t.Fatalf("round %d: y ran on goroutine %d, want the joiner %d", round, id, me)
		}
	}
}

// TestStepWidthOneIsInline pins the degenerate case: at width 1 the
// closure runs on the joining goroutine, inside Join, and the pool is
// not grown.
func TestStepWidthOneIsInline(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	// (Fewer goroutines are fine: SetWorkers(1) stopped the pool, and
	// those goroutines exit in their own time.)
	defer leaktest.Check(t, 0)()
	me := goid()
	var s Step
	for i := 0; i < 10; i++ {
		ranOn := 0
		s.Start(func() { ranOn = goid() })
		if ranOn != 0 {
			t.Fatal("closure ran before Join")
		}
		s.Join()
		if ranOn != me {
			t.Fatalf("closure ran on goroutine %d, joiner is %d", ranOn, me)
		}
	}
}

// TestStepReuseAllocatesNothing: after its first Start a Step is
// allocation-free, whoever runs it.
func TestStepReuseAllocatesNothing(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2} {
		SetWorkers(w)
		var s Step
		fn := func() {}
		s.Start(fn)
		s.Join()
		if a := testing.AllocsPerRun(200, func() { s.Start(fn); s.Join() }); a != 0 {
			t.Errorf("width %d: %.1f allocs per Start+Join of a reused Step", w, a)
		}
	}
}

// BenchmarkStepHandOff is the measurement behind StepOffloadMin: what
// one empty step costs its owner, Start to the end of Join. "inline" is
// width 1 (the joiner claims it); "handoff" is width 2 with the pool
// worker still spinning from the previous step; "parked" lets the pool
// worker go to sleep first, as it does between the steps of a real run
// — the owner then pays for waking a thread, and waits for it.
func BenchmarkStepHandOff(b *testing.B) {
	defer SetWorkers(0)
	ran := make(chan struct{}, 1)
	bench := func(width int, fn func(), idle time.Duration) func(*testing.B) {
		return func(b *testing.B) {
			SetWorkers(width)
			var s Step
			var total time.Duration
			for i := 0; i < b.N; i++ {
				for t0 := time.Now(); time.Since(t0) < idle; {
				}
				t0 := time.Now()
				s.Start(fn)
				if width > 1 {
					<-ran // a pool worker has it
				}
				s.Join()
				total += time.Since(t0)
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/step")
		}
	}
	b.Run("inline", bench(1, func() {}, 0))
	b.Run("handoff", bench(2, func() { ran <- struct{}{} }, 0))
	b.Run("parked", bench(2, func() { ran <- struct{}{} }, 200*time.Microsecond))
}

// TestSetWorkersResizesPool: any pool goroutine may claim a whole
// step, so the width is only honoured if lowering it stops the
// surplus; raising it grows the pool on the next Start. The width moves
// while steps are queued and running: the stop signal has to reach a
// worker between two steps without costing or repeating either.
func TestSetWorkersResizesPool(t *testing.T) {
	defer SetWorkers(0)
	// alive counts pool goroutines in the all-goroutine dump, waiting
	// for it to come down to want: a stopped goroutine leaves in its own
	// time after taking the signal.
	alive := func(want int) int {
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			n := bytes.Count(buf[:runtime.Stack(buf, true)], []byte("tensor.poolWorker("))
			if n <= want || time.Now().After(deadline) {
				return n
			}
		}
	}
	const count = 64
	steps := make([]Step, count)
	runs := make([]atomic.Int32, count)
	for _, w := range []int{4, 2, 1, 3, 1} {
		// Start at the widest setting, so the pool is full when the
		// width drops under the queued steps.
		SetWorkers(4)
		for i := range steps {
			i := i
			steps[i].Start(func() {
				runs[i].Add(1)
				for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
				}
			})
		}
		SetWorkers(w)
		startedMu.Lock()
		got := started
		startedMu.Unlock()
		if got != w-1 {
			t.Fatalf("width %d: pool has %d goroutines, want %d", w, got, w-1)
		}
		for i := range steps {
			steps[i].Join()
			if n := runs[i].Swap(0); n != 1 {
				t.Fatalf("width %d: step %d ran %d times", w, i, n)
			}
		}
		if n := alive(w - 1); n != w-1 {
			t.Fatalf("width %d: %d pool goroutines alive, want %d", w, n, w-1)
		}
	}
}
