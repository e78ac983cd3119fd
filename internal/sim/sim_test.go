package sim

import (
	"errors"
	"testing"
	"time"
)

func TestSingleProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke time.Duration
	k.Spawn("a", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 100*time.Millisecond {
		t.Errorf("woke at %v, want 100ms", woke)
	}
	if k.Now() != 100*time.Millisecond {
		t.Errorf("kernel time %v, want 100ms", k.Now())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10 * time.Millisecond)
				order = append(order, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(15 * time.Millisecond)
				order = append(order, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	first := run()
	// a wakes at 10,20,30; b at 15,30,45. At t=30 b's timer was
	// registered (at t=15) before a's (at t=20), so b precedes a.
	expect := []string{"a", "b", "a", "b", "a", "b"}
	if len(first) != len(expect) {
		t.Fatalf("order %v, want %v", first, expect)
	}
	for i := range expect {
		if first[i] != expect[i] {
			t.Fatalf("order %v, want %v", first, expect)
		}
	}
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range expect {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic order: %v vs %v", again, first)
			}
		}
	}
}

func TestCondBlocksUntilBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	ready := false
	var consumedAt time.Duration
	k.Spawn("consumer", func(p *Proc) {
		for !ready {
			c.Wait()
		}
		consumedAt = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		ready = true
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if consumedAt != 42*time.Millisecond {
		t.Errorf("consumed at %v, want 42ms", consumedAt)
	}
}

func TestSignalWakesOneWaiterFIFO(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	n := 0 // available units
	var got []string
	mk := func(name string) func(*Proc) {
		return func(p *Proc) {
			for n == 0 {
				c.Wait()
			}
			n--
			got = append(got, name)
		}
	}
	k.Spawn("w1", mk("w1"))
	k.Spawn("w2", mk("w2"))
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		n++
		c.Signal()
		p.Sleep(time.Millisecond)
		n++
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Errorf("wake order %v, want [w1 w2]", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	c1 := NewCond(k)
	c2 := NewCond(k)
	k.Spawn("x", func(p *Proc) { c1.Wait() })
	k.Spawn("y", func(p *Proc) { c2.Wait() })
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 2 {
		t.Errorf("blocked %v, want 2 procs", de.Blocked)
	}
}

func TestAfterCallbackFiresAtTime(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	delivered := false
	var sawAt time.Duration
	k.Spawn("rx", func(p *Proc) {
		for !delivered {
			c.Wait()
		}
		sawAt = p.Now()
	})
	k.After(7*time.Millisecond, func() {
		delivered = true
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawAt != 7*time.Millisecond {
		t.Errorf("saw at %v, want 7ms", sawAt)
	}
}

func TestAfterChainsAndNesting(t *testing.T) {
	k := NewKernel()
	var times []time.Duration
	k.After(time.Millisecond, func() {
		times = append(times, k.Now())
		k.After(time.Millisecond, func() {
			times = append(times, k.Now())
		})
	})
	k.Spawn("idle", func(p *Proc) { p.Sleep(10 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Errorf("callback times %v", times)
	}
}

func TestRunUntilDeadlineKillsBlockedProcs(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	iterations := 0
	k.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			iterations++
		}
	})
	k.Spawn("stuck", func(p *Proc) { c.Wait() })
	if err := k.RunUntil(5500 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if iterations != 5 {
		t.Errorf("iterations = %d, want 5", iterations)
	}
	if k.Now() != 5500*time.Millisecond {
		t.Errorf("clock %v, want 5.5s", k.Now())
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Spawn("child", func(p2 *Proc) {
			p2.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(5 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Error("child never ran")
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// a runs, yields at Sleep(0), b runs, then a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestManyProcsNoLeak(t *testing.T) {
	k := NewKernel()
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *Proc) {
			p.Sleep(time.Duration(1+p.ID()) * time.Millisecond)
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
}

func TestKernelStoppedRejectsSecondRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := k.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestProcStateString(t *testing.T) {
	states := []procState{stateRunnable, stateRunning, stateSleeping, stateWaiting, stateDone, procState(99)}
	want := []string{"runnable", "running", "sleeping", "waiting", "done", "unknown"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Errorf("state %d = %q, want %q", i, s.String(), want[i])
		}
	}
}

func TestDeadlineZeroMeansNoLimit(t *testing.T) {
	k := NewKernel()
	var end time.Duration
	k.Spawn("long", func(p *Proc) {
		p.Sleep(time.Hour)
		end = p.Now()
	})
	if err := k.RunUntil(0); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end != time.Hour {
		t.Errorf("end %v, want 1h", end)
	}
}

func TestTimersFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.After(time.Millisecond, func() { order = append(order, i) })
	}
	k.Spawn("idle", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("callback order %v", order)
		}
	}
}
