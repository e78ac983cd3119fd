// Package leaktest is the goroutine-leak check shared by the tests of
// the packages that start goroutines: sim processes, the tensor compute
// pool, simulated and live cluster runs, and transport nodes.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check records the goroutine count and returns the check to run once
// the code under test has shut down (typically deferred). The check
// fails t unless the count falls back to at most the recorded one plus
// slack within five seconds: a stopped goroutine signals its owner a
// few instructions before it exits, so stragglers are waited for
// rather than counted.
func Check(t testing.TB, slack int) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+slack {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines still running, %d before (slack %d)", runtime.NumGoroutine(), before, slack)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}
