package sim

// baton_test.go — the contracts of the baton-passing scheduler: the
// run order the old kernel-goroutine round trip produced, scheduler
// context for callbacks now that they run on a parker's stack, the
// hand-off-free path, and clean termination, panics included.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hop/internal/leaktest"
)

// TestSameInstantWakeupsRunInSeqOrder: procs whose timers fire at one
// instant run in the order the timers were armed, not in spawn order,
// and a callback at that instant keeps its place in the same sequence.
func TestSameInstantWakeupsRunInSeqOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	first := map[string]time.Duration{"a": 3, "b": 1, "c": 2} // arming order: b, c, a
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Sleep(first[name] * time.Millisecond)
			if name == "c" {
				k.After(10*time.Millisecond-p.Now(), func() { order = append(order, "callback") })
			}
			p.Sleep(10*time.Millisecond - p.Now()) // everyone wakes at t=10ms
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The callback fires while the timers of the instant are drained,
	// before any woken proc runs; the procs follow in arming order.
	want := []string{"callback", "b", "c", "a"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

// TestAfterCallbackSpawnsAndBroadcasts: callbacks run in scheduler
// context — no current proc — even though they run on a parking proc's
// stack; they may Spawn and Broadcast, and what they make
// runnable runs in FIFO order.
func TestAfterCallbackSpawnsAndBroadcasts(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var order []string
	ready := false
	k.Spawn("waiter", func(p *Proc) {
		for !ready {
			c.Wait()
		}
		order = append(order, "waiter")
	})
	k.After(time.Millisecond, func() {
		if k.current != nil {
			t.Errorf("callback ran with current proc %q", k.current.name)
		}
		k.Spawn("spawned", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, "spawned")
		})
	})
	k.After(time.Millisecond, func() {
		ready = true
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"waiter", "spawned"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if k.Now() != 2*time.Millisecond {
		t.Errorf("clock %v, want 2ms", k.Now())
	}
}

// TestLoneSleepResumesItself: with nothing else runnable the sleeper's
// own scheduling step picks the sleeper again and park returns without
// a coroutine switch. The proc runs with its yield removed, so a
// hand-off on that path would panic on the nil func, out of Run,
// instead of passing by accident.
func TestLoneSleepResumesItself(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("lone", func(p *Proc) {
		yield := p.yield
		p.yield = nil
		defer func() { p.yield = yield }()
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			p.Sleep(0)
			if k.current != p || p.state != stateRunning {
				t.Errorf("after self-resume: current=%v state=%v", k.current, p.state)
			}
			ticks++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ticks != 100 || k.Now() != 100*time.Millisecond {
		t.Errorf("ticks=%d clock=%v, want 100 and 100ms", ticks, k.Now())
	}
}

// TestDeadlockBlockedNames: the report names exactly the blocked procs,
// sorted, with the clock at the instant progress stopped — whichever
// proc happened to detect it — and the blocked procs are unwound.
func TestDeadlockBlockedNames(t *testing.T) {
	defer leaktest.Check(t, 0)()
	k := NewKernel()
	c := NewCond(k)
	k.Spawn("zeta", func(p *Proc) { p.Sleep(3 * time.Millisecond); c.Wait() })
	k.Spawn("alpha", func(p *Proc) { c.Wait() })
	k.Spawn("finisher", func(p *Proc) { p.Sleep(time.Millisecond) })
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if want := []string{"alpha", "zeta"}; !reflect.DeepEqual(de.Blocked, want) {
		t.Errorf("blocked %v, want %v", de.Blocked, want)
	}
	if de.Now != 3*time.Millisecond {
		t.Errorf("deadlock at %v, want 3ms", de.Now)
	}
}

// TestRunUntilLeavesNoGoroutines: after a deadline stop every proc
// goroutine — sleeping, waiting, never scheduled or finished — is gone.
func TestRunUntilLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t, 0)()
	k := NewKernel()
	c := NewCond(k)
	for i := 0; i < 50; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(time.Duration(1+p.ID()) * time.Millisecond)
			}
		})
		k.Spawn("waiter", func(p *Proc) { c.Wait() })
		k.Spawn("short", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	k.After(20*time.Millisecond, func() { k.Spawn("late", func(p *Proc) { c.Wait() }) })
	if err := k.RunUntil(20 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
}

// TestPanicReachesRunUntilCaller: a real panic in a proc, or in a
// callback fired on a parking proc's stack, reaches RunUntil's caller
// with its value, after every other proc — sleeping, waiting or
// runnable — has been unwound.
func TestPanicReachesRunUntilCaller(t *testing.T) {
	for _, where := range []string{"proc", "callback"} {
		t.Run(where, func(t *testing.T) {
			defer leaktest.Check(t, 0)()
			k := NewKernel()
			c := NewCond(k)
			for i := 0; i < 50; i++ {
				k.Spawn("sleeper", func(p *Proc) {
					for {
						p.Sleep(time.Duration(1+p.ID()%7) * time.Millisecond)
					}
				})
				k.Spawn("waiter", func(p *Proc) { c.Wait() })
			}
			boom := errors.New("boom in a " + where)
			if where == "proc" {
				k.Spawn("panicker", func(p *Proc) {
					p.Sleep(5 * time.Millisecond)
					panic(boom)
				})
			} else {
				k.After(5*time.Millisecond, func() { panic(boom) })
			}
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("recovered %v, want %v", r, boom)
				}
				for _, p := range k.procs {
					if p.state != stateDone {
						t.Errorf("%s %d left %v", p.name, p.id, p.state)
					}
				}
			}()
			k.RunUntil(time.Second)
			t.Error("RunUntil returned instead of panicking")
		})
	}
}
